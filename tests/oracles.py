"""Independent reference implementations the test suite compares against.

Nothing in this file imports from dickemod. Hamiltonians are rebuilt entry by
entry from the ladder definition with dense numpy, evolution is piecewise-frozen
matrix exponentials, distributions are textbook formulas. Slow and dumb on
purpose: a bug in the package cannot leak into these values.
"""

import contextlib
import math
import warnings

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.special import gammaln


def dense_collective_hamiltonian(n_qubits, n_max, omega, Omega, g, with_crt):
    """Dicke-ladder Hamiltonian, photon index fastest.

    H = omega*n + Omega*sum_k k|k><k| + g sum_k f_k (a + a^dag)(raise + lower)
    with the counter-rotating part dropped when with_crt is false.
    """
    npt = n_max + 1
    dim = (n_qubits + 1) * npt
    h = np.zeros((dim, dim), dtype=complex)

    def idx(k, n):
        return k * npt + n

    for k in range(n_qubits + 1):
        for n in range(npt):
            h[idx(k, n), idx(k, n)] = omega * n + Omega * k
    for k in range(n_qubits):
        f = math.sqrt((k + 1) * (n_qubits - k))
        for n in range(npt):
            if n >= 1:
                # a sigma_{k+1,k} and its conjugate
                h[idx(k + 1, n - 1), idx(k, n)] += g * f * math.sqrt(n)
                h[idx(k, n), idx(k + 1, n - 1)] += g * f * math.sqrt(n)
            if with_crt and n + 1 <= n_max:
                # a^dag sigma_{k+1,k} and its conjugate
                h[idx(k + 1, n + 1), idx(k, n)] += g * f * math.sqrt(n + 1)
                h[idx(k, n), idx(k + 1, n + 1)] += g * f * math.sqrt(n + 1)
    return h


def hamiltonian_at(ham, t):
    """H(t) = h_const + sum_j sin(eta_j t + phi_j) H_j as a sparse matrix, read
    from a ModulatedHamiltonian's h_const and (schedule, matrix) terms."""
    h = ham.h_const
    for sched, hx in ham.terms:
        h = h + float(np.sin(sched.eta * t + sched.phi)) * hx
    return h


@contextlib.contextmanager
def cutoff_warning_ignored():
    """Silence only the Fock-cutoff warning, for a run whose population
    reaches n_max on purpose (or may, as a generated example)."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="population .* at the Fock cutoff")
        yield


def frozen_step_evolve(h_at, psi0, t_final, steps):
    """March psi with exp(-i H(t_mid) dt) over equal slices of [0, t_final].

    Second order in the slice width; callers should verify convergence by
    doubling `steps`.
    """
    dt = t_final / steps
    psi = np.asarray(psi0, dtype=complex).copy()
    for j in range(steps):
        h = h_at((j + 0.5) * dt)
        psi = expm(-1j * dt * h) @ psi
    return psi


def reference_march(one_period, psi0, ks):
    """States U(T)^k psi0 for each k of the nondecreasing ks, by applying U(T)
    one period at a time.

    one_period(e_j) is the state one drive period after basis vector e_j; the
    columns make U(T), which is polar-projected onto the nearest unitary.
    """
    dim = len(psi0)
    u = np.column_stack([one_period(e) for e in np.eye(dim, dtype=complex)])
    w, _, vh = np.linalg.svd(u)
    u = w @ vh
    psi = np.asarray(psi0, dtype=complex)
    out = []
    k = 0
    for target in ks:
        for _ in range(target - k):
            psi = u @ psi
        k = target
        out.append(psi)
    return np.array(out)


def photon_expectation(psi, n_qubits, n_max):
    npt = n_max + 1
    grid = np.abs(np.asarray(psi).reshape(n_qubits + 1, npt)) ** 2
    return float(grid.sum(axis=0) @ np.arange(npt))


def bare_marginals(populations, n_qubits, n_max, distinguishable):
    """(p_ph, p_at) of flat basis-state populations, one basis state at a time;
    a distinguishable configuration counts its set bits as excited qubits."""
    p_ph, p_at = np.zeros(n_max + 1), np.zeros(n_qubits + 1)
    for index, weight in enumerate(populations):
        atom, n = divmod(index, n_max + 1)
        k = bin(atom).count("1") if distinguishable else atom
        p_ph[n] += weight
        p_at[k] += weight
    total = float(np.sum(populations))
    return p_ph / total, p_at / total


def truncated_poisson(alpha_sq, n_max):
    """Photon distribution of a coherent state truncated at n_max, renormalized."""
    if alpha_sq == 0.0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    n = np.arange(n_max + 1)
    logp = n * math.log(alpha_sq) - alpha_sq - gammaln(n + 1)
    p = np.exp(logp)
    return p / p.sum()


def two_level_exchange_direct(xi, b_t0, b_s0, t_grid, rtol=1e-12):
    """Integrate db_T/dt = xi b_S, db_S/dt = -conj(xi) b_T with solve_ivp.

    This is the on-resonance two-level restriction of the slow amplitude
    equations; the antisymmetric partner rate makes it norm preserving.
    """
    t_grid = np.asarray(t_grid, dtype=float)

    def rhs(_t, y):
        bt = y[0] + 1j * y[1]
        bs = y[2] + 1j * y[3]
        dbt = xi * bs
        dbs = -np.conj(xi) * bt
        return [dbt.real, dbt.imag, dbs.real, dbs.imag]

    y0 = [b_t0.real, b_t0.imag, b_s0.real, b_s0.imag]
    sol = solve_ivp(rhs, (0.0, float(t_grid[-1])), y0, t_eval=t_grid,
                    rtol=rtol, atol=1e-14, method="DOP853")
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    bt = sol.y[0] + 1j * sol.y[1]
    bs = sol.y[2] + 1j * sol.y[3]
    return bt, bs


def damped_cavity_nph(n0, kappa, t):
    """Mean photon number of a linearly damped cavity."""
    return n0 * np.exp(-kappa * np.asarray(t, dtype=float))


def dominant_angular_rate(times, values):
    """Angular frequency of the strongest spectral line of a real trace.

    Hann window plus 8x zero padding plus parabolic sub-bin refinement.
    Robust against the multi-component envelopes that make a plain cosine
    fit fail; used where only a rate (not a full fit) is asserted.
    """
    y = np.asarray(values, dtype=float)
    t = np.asarray(times, dtype=float)
    yc = (y - y.mean()) * np.hanning(len(y))
    n_pad = 8 * len(y)
    mag = np.abs(np.fft.rfft(yc, n_pad))
    freqs = np.fft.rfftfreq(n_pad, t[1] - t[0])
    i = int(np.argmax(mag[1:])) + 1
    a, b, c = mag[i - 1], mag[i], mag[i + 1]
    denom = a - 2.0 * b + c
    off = 0.5 * (a - c) / denom if denom != 0.0 else 0.0
    return 2.0 * math.pi * (freqs[i] + off * (freqs[1] - freqs[0]))


def _one_period_propagators(h_at, dim, period, times, rtol):
    """Full-space U(t) at the sorted `times` in [0, period], from one dim x dim
    solve of dU/dt = -i H(t) U."""
    def rhs(t, y):
        return (-1j * (h_at(t) @ y.reshape(dim, dim))).ravel()

    sol = solve_ivp(rhs, (0.0, period), np.eye(dim, dtype=complex).ravel(), t_eval=times,
                    method="DOP853", rtol=rtol, atol=rtol * 1e-3, max_step=period / 20)
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol.y.T.reshape(-1, dim, dim)


def dop853_t_eval(fun, t_span, y0, t_grid, rtol, max_step):
    """Samples at t_grid of dy/dt = fun(t, y), one row per time, and the rhs
    count, from scipy's DOP853 sampling through solve_ivp's t_eval, with
    atol = rtol * 1e-3 and the step cap max_step."""
    sol = solve_ivp(fun, t_span, y0, method="DOP853", t_eval=t_grid, rtol=rtol,
                    atol=rtol * 1e-3, max_step=max_step)
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol.y.T, sol.nfev


def _nearest_unitary(u):
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def full_space_floquet(h_at, psi0, period, times, rtol=1e-13):
    """States psi(kT + tau) = U(tau) U(T)^k psi0 at `times`, with every
    propagator on the full space and U(T) polar-projected.

    h_at(t) is the dense H(t); a time within 1e-9 periods of a multiple of
    the period counts as that multiple.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    cycles = np.asarray(times, dtype=float) / period
    ks = np.where(np.abs(cycles - np.round(cycles)) < 1e-9, np.round(cycles), np.floor(cycles))
    taus = np.clip((cycles - ks) * period, 0.0, period)
    grid, index = np.unique(np.append(taus, period), return_inverse=True)
    us = _one_period_propagators(h_at, len(psi0), period, grid, rtol)
    u_t = _nearest_unitary(us[-1])
    return np.array([us[j] @ (np.linalg.matrix_power(u_t, int(k)) @ psi0)
                     for k, j in zip(ks, index[:-1])])


def full_space_lindblad_channel(h_at, collapse, period, panels, rtol=1e-13, slices=6):
    """The d^2 x d^2 one-period channel on row-major vec(rho), built the way
    the stroboscopic master-equation engine builds it, on the full space.

    Per slice of the period, the dissipator in the interaction picture of U(t)
    is integrated by composite 6-point Gauss-Legendre quadrature with `panels`
    panels, to Omega; the slice factor is 1 + Omega + Omega^2/2. The product of
    the slice factors is followed by the polar-projected U(T) (x) conj(U(T)).
    collapse holds (rate, dense operator) pairs.
    """
    x, w = np.polynomial.legendre.leggauss(6)
    edges = np.linspace(0.0, period, slices * panels + 1)
    half = np.diff(edges) / 2.0
    nodes = (half[:, None] * x + (edges[:-1] + half)[:, None]).reshape(slices, -1)
    weights = (half[:, None] * w).reshape(slices, -1)
    grid = np.unique(np.append(nodes.ravel(), period))
    dim = collapse[0][1].shape[0] if collapse else h_at(0.0).shape[0]
    us = _one_period_propagators(h_at, dim, period, grid, rtol)
    eye = np.eye(dim)
    channel = np.eye(dim * dim, dtype=complex)
    for nd, wt in zip(nodes, weights):
        u = us[np.searchsorted(grid, nd)]
        omega = np.zeros((dim * dim, dim * dim), dtype=complex)
        for rate, op in collapse:
            # sum_t w(t) [A(t) (x) conj(A(t)) - (M(t) (x) 1 + 1 (x) M(t)^T)/2]
            a = np.conj(u).transpose(0, 2, 1) @ op @ u
            jump = np.einsum("t,tik,tjl->ijkl", wt, a, a.conj()).reshape(dim * dim, -1)
            m = np.einsum("t,tki,tkj->ij", wt, a.conj(), a)
            omega += rate * (jump - 0.5 * (np.kron(m, eye) + np.kron(eye, m.T)))
        channel = (np.eye(dim * dim) + omega + 0.5 * omega @ omega) @ channel
    u_t = _nearest_unitary(us[-1])
    return np.kron(u_t, u_t.conj()) @ channel


def hermitian_basis_map(pairing, dim):
    """The unitary T on a Liouville block of size dim: each transpose pair
    (x_lo, x_hi) of `pairing` goes to ((x_lo + x_hi), i (x_lo - x_hi)) / sqrt(2),
    every entry in no pair stays."""
    lo, hi = (np.asarray(index) for index in pairing)
    t = np.eye(dim, dtype=complex)
    s = math.sqrt(0.5)
    t[lo, lo], t[lo, hi], t[hi, lo], t[hi, hi] = s, s, 1j * s, -1j * s
    return t


def from_hermitian_basis(r, pairing):
    """T^H r T: a block matrix in the Hermitian basis back in vec(rho) order."""
    t = hermitian_basis_map(pairing, len(r))
    return t.conj().T @ r @ t


def complex_slice_generator(u_nd, wt, collapse, flips, op_blocks, pairs, span, sizes):
    """One slice's Lindblad generator Omega on the Liouville block of `pairs`,
    in complex on the concatenated row-major vec(rho_pq) (positions `span`):
    the quadrature, with weights wt, of the dissipator in the interaction
    picture of U(t), whose parity-sector blocks at the slice's nodes are u_nd.
    collapse holds (rate, _) pairs, flips each operator's parity flip and
    op_blocks its blocks op[sector p, sector p ^ flip]. Every row of Omega is
    built, one full gram matrix per operator and pair."""
    def pair_view(om, a, b):
        # v[i, j, k, l] = om[(i, j) of pair a, (k, l) of pair b]
        return om[span[a], span[b]].reshape(sizes[a[0]], sizes[a[1]], sizes[b[0]], sizes[b[1]])

    n = span[pairs[-1]].stop
    om = np.zeros((n, n), dtype=complex)
    m_slice = [np.zeros((b, b), dtype=complex) for b in sizes]
    for (rate, _), f, ob in zip(collapse, flips, op_blocks):
        # x[p]: the sector block (p, p ^ f) of U^dag op U at each node
        x = [np.conj(u_nd[p]).transpose(0, 2, 1) @ ob[p] @ u_nd[p ^ f] for p in (0, 1)]
        flat = [xp.reshape(len(wt), -1) for xp in x]
        for c in (0, 1):
            # the columns of sector c of U^dag op U sit in block (c ^ f, c)
            fw = (x[c ^ f].conj() * wt[:, None, None]).reshape(-1, sizes[c])
            m_slice[c] += rate * (fw.T @ x[c ^ f].reshape(-1, sizes[c]))
        for p, q in pairs:
            # the jump term A rho A^dag; the gram is indexed [(i,k),(j,l)]
            view = pair_view(om, (p, q), (p ^ f, q ^ f))
            view += ((flat[p] * (rate * wt)[:, None]).T @ flat[q].conj()).reshape(
                sizes[p], sizes[p ^ f], sizes[q], sizes[q ^ f]).transpose(0, 2, 1, 3)
    for p, q in pairs:
        # -(M_p (x) 1 + 1 (x) M_q^T)/2, one identity index at a time
        view = pair_view(om, (p, q), (p, q))
        for j in range(sizes[q]):
            view[:, j, :, j] -= 0.5 * m_slice[p]
        for i in range(sizes[p]):
            view[i, :, i, :] -= 0.5 * m_slice[q].T
    return om


def to_hermitian_basis(m, pairing):
    """T m T^H, in place on the complex matrix m: every transpose pair of
    rows, then of columns, rotated as hermitian_basis_map's T does."""
    lo, hi = (np.asarray(index) for index in pairing)
    s = math.sqrt(0.5)
    a, b = m[lo], m[hi]
    m[lo], m[hi] = s * (a + b), 1j * s * (a - b)
    a, b = m[:, lo], m[:, hi]
    m[:, lo], m[:, hi] = s * (a + b), 1j * s * (b - a)
    return m


def real_part(z):
    """(Re z, the imaginary residue max|Im z| relative to the largest entry)."""
    imag = float(np.max(np.abs(z.imag)))
    scale = max(float(np.max(np.abs(z.real))), imag)
    return np.ascontiguousarray(z.real), imag / scale if scale else 0.0


def lindblad_dissipator(op, rho):
    """D[O]rho = (2 O rho O^dag - O^dag O rho - rho O^dag O)/2; traceless."""
    op = np.asarray(op)
    rho = np.asarray(rho)
    if op.shape != rho.shape or op.shape[0] != op.shape[1]:
        raise ValueError(f"dissipator shapes {op.shape} vs {rho.shape} mismatch")
    od = op.conj().T
    m = od @ op
    return op @ rho @ od - 0.5 * (m @ rho + rho @ m)


def dicke_amplitude(n_qubits, k):
    """Amplitude sqrt(k!(N-k)!/N!) of each configuration inside the Dicke state |k>."""
    if not 0 <= k <= n_qubits:
        raise ValueError(f"k={k} outside [0, {n_qubits}]")
    return 1.0 / math.sqrt(math.comb(n_qubits, k))


def embed_collective(amplitudes, n_qubits, n_max):
    """Amplitudes of a collective-basis state in the distinguishable basis.

    Only meaningful for identical qubits; each |k> maps to the symmetric
    superposition of its configurations, each with dicke_amplitude(N, k).
    """
    grid = np.asarray(amplitudes).reshape(n_qubits + 1, n_max + 1)
    ks = [bin(bits).count("1") for bits in range(2**n_qubits)]
    amplitude = np.array([dicke_amplitude(n_qubits, k) for k in ks])
    return (grid[ks] * amplitude[:, None]).ravel()


def total_excitation(n_qubits, n_max, distinguishable=False):
    """Diagonal of n + k, photon index fastest, with k the Dicke index or the
    popcount of the configuration; conserved by the Tavis-Cummings coupling."""
    atoms = range(2**n_qubits if distinguishable else n_qubits + 1)
    ks = [bin(a).count("1") if distinguishable else a for a in atoms]
    return np.add.outer(ks, np.arange(n_max + 1)).ravel().astype(float)


def dressed_state_perturbative(n_qubits, n_max, delta, g, n, k):
    """Second-order dressed state of |k, n-k> as a collective-basis vector.

    Components exist only for atomic indices k', |k'-k| <= 2, inside
    [0, min(n, N)]; the vector is normalized with the leading amplitude
    positive.
    """
    if not 0 <= k <= min(n, n_qubits) or n > n_max or delta == 0.0:
        raise ValueError(f"no dressed state of (n={n}, k={k}) at N={n_qubits}, "
                         f"n_max={n_max}, delta={delta}")
    kmax = min(n, n_qubits)
    K = n - k

    def f(j):
        return math.sqrt((j + 1) * (n_qubits - j))

    comps = {k: 1.0}
    if k + 1 <= kmax:
        comps[k + 1] = g * f(k) * math.sqrt(K) / delta
    if k - 1 >= 0:
        comps[k - 1] = -g * f(k - 1) * math.sqrt(K + 1) / delta
    if k + 2 <= kmax:
        comps[k + 2] = g**2 * f(k) * f(k + 1) * math.sqrt(K * (K - 1)) / (2 * delta**2)
    if k - 2 >= 0:
        comps[k - 2] = (
            g**2 * f(k - 1) * f(k - 2) * math.sqrt((K + 1) * (K + 2)) / (2 * delta**2)
        )
    vec = np.zeros((n_qubits + 1) * (n_max + 1))
    for kk, amp in comps.items():
        vec[kk * (n_max + 1) + n - kk] = amp
    vec /= np.linalg.norm(vec)
    return vec.astype(complex)


def upsilon(target, epsilon, k, bra, ket, n_qubits):
    """First-order drive matrix element Upsilon^(target, k) between two
    collective-basis states.

    omega target: delta_{k,0} * eps * <bra| n |ket>; g target: eps * f_k *
    <bra| a sigma_{k+1,k} + h.c. |ket>; Omega target: eps * k *
    <bra| sigma_kk |ket>. Returns the real part.
    """
    grid_t = np.asarray(bra).reshape(n_qubits + 1, -1)
    grid_s = np.asarray(ket).reshape(n_qubits + 1, -1)
    if target == "omega":
        if k != 0:
            return 0.0
        val = np.vdot(grid_t, np.arange(grid_s.shape[1]) * grid_s)
    elif target == "g":
        if not 0 <= k <= n_qubits - 1:
            raise ValueError(f"g-target k={k} outside [0, {n_qubits - 1}]")
        # a sigma_{k+1,k} |k, n> = sqrt(n) |k+1, n-1>, and its conjugate
        sq = np.sqrt(np.arange(1, grid_s.shape[1]))
        f = math.sqrt((k + 1) * (n_qubits - k))
        val = f * (np.vdot(grid_t[k + 1, :-1], sq * grid_s[k, 1:])
                   + np.vdot(grid_t[k, 1:], sq * grid_s[k + 1, :-1]))
    else:
        if not 0 <= k <= n_qubits:
            raise ValueError(f"Omega-target k={k} outside [0, {n_qubits}]")
        val = k * np.vdot(grid_t[k], grid_s[k])
    return epsilon * float(np.real(val))
