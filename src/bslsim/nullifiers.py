"""Nullifier sets, the local-quadrature transformation, and witness reports.

A nullifier row is the operator sum_k (coeff_q[k] q_k + coeff_p[k] p_k).
Its variance is Var(c) = <c^dag c> - |<c>|^2 = conj(c)^T (Sigma + i Omega / 2) c
with c the stacked (q, p) coefficient vector; the commutator term i Omega / 2
is what makes the exact nullifiers (p - Z q) of a graph state have zero
variance.  For real (quadrature-pure) rows it drops out and the variance is
the classical c^T Sigma c that homodyne statistics estimate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphstate import (GraphState, GraphStateError, SymplecticGate, apply,
                         covariance)


@dataclass(frozen=True)
class NullifierSet:
    """Rows of linear nullifiers: coeff_q, coeff_p with shape (rows, n)."""

    coeff_q: np.ndarray
    coeff_p: np.ndarray

    def __post_init__(self):
        cq = np.asarray(self.coeff_q)
        cp = np.asarray(self.coeff_p)
        if cq.shape != cp.shape or cq.ndim != 2:
            raise GraphStateError("coefficient blocks must share a (rows, n) shape")
        object.__setattr__(self, "coeff_q", cq)
        object.__setattr__(self, "coeff_p", cp)

    @property
    def n_rows(self) -> int:
        return self.coeff_q.shape[0]

    @property
    def n_modes(self) -> int:
        return self.coeff_q.shape[1]

    def stacked(self) -> np.ndarray:
        """(rows, 2n) coefficients in the (q..., p...) ordering."""
        return np.concatenate([self.coeff_q, self.coeff_p], axis=1)

    def quadrature_pure(self) -> bool:
        """True if every row touches only q or only p."""
        zq = np.all(self.coeff_q == 0, axis=1)
        zp = np.all(self.coeff_p == 0, axis=1)
        return bool(np.all(zq | zp))


def exact_nullifiers(state: GraphState) -> NullifierSet:
    """The defining set (p - Z q) of a graph state; zero variance in theory."""
    return NullifierSet(-state.z, np.eye(state.n_modes, dtype=complex))


def phi_transform(state: GraphState) -> GraphState:
    """Quarter phase delay on every mode: R(pi/4)^(x n).

    Applied as one gate on every mode, Z' = (s I + c Z)(c I - s Z)^-1 with
    c = cos(pi/4) and s = sin(pi/4), so the exact cond guard and the Im Z
    check of apply run once.
    """
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    rot = np.kron([[c, -s], [s, c]], np.eye(state.n_modes))
    return apply(state, SymplecticGate(rot))


def quadrature_nullifiers(v: np.ndarray) -> NullifierSet:
    """Local position/momentum nullifiers of the phase-delayed state.

    Rows: the (I - V) p block followed by the (I + V) q block; each row is
    quadrature-pure and supported on node j and its V-neighborhood.  The
    stacked set has 2n rows of rank n per block (rank 2n overall).
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    if not _involution_error(v) <= 1e-6:     # also refuses a NaN V
        raise GraphStateError("graph must be self-inverse (V^2 = I)")
    zeros = np.zeros((n, n))
    coeff_q = np.concatenate([zeros, np.eye(n) + v], axis=0)
    coeff_p = np.concatenate([np.eye(n) - v, zeros], axis=0)
    return NullifierSet(coeff_q, coeff_p)


def _involution_error(v: np.ndarray) -> float:
    """max |V^2 - I| of a square V, row by row from its nonzeros.

    Row i of V^2 is V[i, j] @ V[j] over the nonzero columns j of row i, so
    the check costs O(n^2 deg), the order of the scan for the nonzeros.  A
    NaN entry is a nonzero and propagates to the result.
    """
    n = len(v)
    if v.shape != (n, n):
        raise GraphStateError(f"graph must be square, got shape {v.shape}")
    dev = np.zeros(n)
    for i in range(n):
        j = np.flatnonzero(v[i])
        d = v[i, j] @ v[j]
        d[i] -= 1
        dev[i] = np.abs(d).max()
    return float(dev.max(initial=0.0))


def nullifier_variances(state: GraphState, nulls: NullifierSet) -> np.ndarray:
    """Variance of each nullifier row on the state."""
    if nulls.n_modes != state.n_modes:
        raise GraphStateError(
            f"nullifiers act on {nulls.n_modes} modes, state has {state.n_modes}")
    # a pure state has Sigma + i Omega / 2 = [I, Z]^H (Im Z)^-1 [I, Z] / 2, so
    # row (a, b) has variance |L^-1 (a + Z b)|^2 / 2 with Im Z = L L^T; the
    # 2n x 2n form is never built, as its entries grow as cosh 2r and cancel
    low = np.linalg.cholesky(state.z.imag)
    x = np.linalg.solve(low, (nulls.coeff_q + nulls.coeff_p @ state.z).T)
    return 0.5 * (np.abs(x) ** 2).sum(axis=0)


def vacuum_variances(nulls: NullifierSet) -> np.ndarray:
    """Same rows evaluated on the vacuum: the product-state baseline.

    With Sigma + i Omega / 2 = (I + i Omega) / 2 the form of row (a, b) is
    (|a|^2 + |b|^2) / 2 - Im(conj(a) . b), O(n) per row.
    """
    a, b = nulls.coeff_q, nulls.coeff_p
    return (0.5 * (np.abs(a) ** 2 + np.abs(b) ** 2).sum(axis=1)
            - (a.conj() * b).sum(axis=1).imag)


def lattice_factors(v: np.ndarray, r: float, phase_delayed: bool = True):
    """Factors (F_q, F_p), Sigma = F F^T, of Z = i sech(2r) I + tanh(2r) V.

    V is real symmetric with V^2 = I.  The quarter-delayed lattice
    i cosh(2r) I + i sinh(2r) V has Sigma_qq = (cosh 2r I - sinh 2r V) / 2,
    Sigma_pp = (cosh 2r I + sinh 2r V) / 2 and a zero q-p block, and V^2 = I
    makes (cosh r I -+ sinh r V) / sqrt 2 their symmetric roots.  Without the
    delay both are cosh(2r) I / 2, with root sqrt(cosh(2r) / 2) I.  Means are 0.
    """
    eye = np.eye(len(v))
    if not phase_delayed:
        return (np.sqrt(0.5 * np.cosh(2 * r)) * eye,) * 2
    c, s = np.cosh(r) / np.sqrt(2), np.sinh(r) / np.sqrt(2)
    return c * eye - s * v, c * eye + s * v


def lattice_variances(baselines: np.ndarray, r: float) -> np.ndarray:
    """Exact variances of quadrature_nullifiers(V) on the delayed lattice:
    with V^2 = I, (I -+ V)(cosh 2r I +- sinh 2r V)(I -+ V) / 2 is
    e^{-2r} (I -+ V), so each row's variance is e^{-2r} times its vacuum
    variance, baselines = vacuum_variances(nulls).
    """
    return np.exp(-2 * r) * baselines


# -- sampling and the two-setting witness protocol ---------------------------

#: most draws (shots x modes) in one sample_marginal call: 1 GiB of float64
MAX_DRAWS = 2 ** 27


def sample_homodyne_dataset(state: GraphState, setting: str, shots: int,
                            seed=None, path=None) -> np.ndarray:
    """Draw homodyne shots with every mode measured in one common basis.

    setting "q" or "p"; rows are shots, columns are modes.  The factor is
    the Cholesky factor of that setting's block of the state's covariance.
    """
    if setting not in ("q", "p"):
        raise GraphStateError("setting must be 'q' or 'p'")
    n = state.n_modes
    sl = slice(0, n) if setting == "q" else slice(n, 2 * n)
    try:
        factor = np.linalg.cholesky(covariance(state)[sl, sl])
    except np.linalg.LinAlgError as exc:
        raise GraphStateError(f"the {setting} marginal covariance has no "
                              f"Cholesky factor ({exc})") from exc
    return sample_marginal(factor, shots, seed, path, state.mean[sl])


def sample_marginal(factor: np.ndarray, shots: int, seed=None, path=None,
                    mean=0.0) -> np.ndarray:
    """Draw shots mean + F z (z standard normal) of one homodyne setting.

    factor is F (n x n) with marginal covariance F F^T; shots x n must not
    exceed MAX_DRAWS.  With a path, the shots are also written as CSV with a
    mode_0,...,mode_{n-1} header.
    """
    n = len(factor)
    if n < 1:
        raise GraphStateError("need at least one mode")
    if shots < 1:
        raise GraphStateError("need at least one shot")
    if shots * n > MAX_DRAWS:
        raise GraphStateError(f"{shots} shots of {n} modes are above the "
                              f"limit of {MAX_DRAWS} draws")
    rng = np.random.default_rng(seed)
    data = mean + rng.standard_normal((shots, n)) @ factor.T
    if path is not None:
        _write_csv(path, data)
    return data


#: entries formatted together by _write_csv: a block's buffers take about
#: 210 bytes an entry, and of blocks of 2**12 to 2**15 entries this one
#: wrote 10000 x 16 shots fastest on a 2-core host (23 against 24-31 ms)
_CSV_BLOCK_ENTRIES = 2 ** 13


def _csv_header(n_modes: int) -> str:
    return ",".join(f"mode_{k}" for k in range(n_modes))


def _write_csv(path, data: np.ndarray) -> None:
    """Shots (rows) as CSV under a mode_0,...,mode_{n-1} header.

    The bytes are np.savetxt(path, data, fmt="%.17g", delimiter=",",
    header=..., comments=""), and 17 significant digits round-trip every
    double.  savetxt formats each entry through Python's %; here
    _format_rows formats a block of whole rows, about _CSV_BLOCK_ENTRIES
    entries, at once and one write takes it, so memory stays O(block).
    """
    rows, n = data.shape
    per_block = max(1, _CSV_BLOCK_ENTRIES // n)
    with open(path, "wb") as fh:
        fh.write(_csv_header(n).encode() + b"\n")
        for start in range(0, rows, per_block):
            block = np.ascontiguousarray(data[start:start + per_block],
                                         dtype=np.float64)
            fh.write(_format_rows(block))


# _format_rows writes |x| in [1e-4, 1e16), where %.17g uses fixed notation,
# from its 17 significant digits D = round(|x| 10^s), s = 16 - floor(log10|x|)
# with ties to even as %.17g rounds.  10^s (s <= 22) is an exact double, and
# Dekker's two-product (Numer. Math. 18, 224 (1971); Veltkamp's split, no
# FMA) gives |x| 10^s = hi + lo exactly; hi >= 1e16 > 2^53 is an even
# integer, so D = hi + rint(lo).  Each entry fills a 40-byte row of five
# words with nul bytes where nothing is written: byte 0 the sign, 1-5 the
# "0.000" of |x| < 1, digit i (0..16) at byte 6 + 2i and the point after it
# at 7 + 2i, the separator at byte 39.  Deleting the nuls leaves the text.
# Every other entry (0, subnormals, |x| < 1e-4 or >= 1e16, inf, nan) takes
# "%.17g" % x itself; Gaussian shots hold about one in 10^4.

_SPLITTER = 2.0 ** 27 + 1.0
_POW10 = np.array([10.0 ** s for s in range(23)])


def _words(rows) -> np.ndarray:
    """Equal-length byte strings as rows of native uint64 words."""
    return np.frombuffer(b"".join(rows), np.uint64).reshape(len(rows), -1)


def _head(negative: bool, lead: int, k: int) -> bytes:
    """Bytes 0-7 of a row: sign, the 0.000 prefix or the point, digit 0."""
    row = bytearray([45 * negative, 0, 0, 0, 0, 0, 48 + lead, 0])
    if k < 0:
        row[5 + k:6] = b"0." + b"0" * (-k - 1)
    elif k == 0:
        row[7] = 46
    return bytes(row)


def _quad_words() -> np.ndarray:
    """The digits of 0000..9999 at the even bytes of a word."""
    digits = np.arange(48, 58, dtype=np.uint8)
    text = np.zeros((10000, 8), np.uint8)
    for place in range(4):
        text[:, 2 * place] = np.tile(np.repeat(digits, 10 ** (3 - place)),
                                     10 ** place)
    return text.view(np.uint64)[:, 0]


def _last_digits() -> np.ndarray:
    """[j, q]: the index (1..16) of the last nonzero digit in quad j holding
    q; 0 if q is 0."""
    q = np.arange(10000, dtype=np.int16)
    zeros = (q % 10 == 0).view(np.int8) + (q % 100 == 0) + (q % 1000 == 0)
    last = np.arange(4, 20, 4, dtype=np.int8)[:, None] - zeros
    return np.where(q > 0, last, np.int8(0))


#: the head word of (sign, first digit, decimal exponent k + 4)
_HEADS = _words([_head(neg, lead, k) for neg in (0, 1) for lead in range(10)
                 for k in range(-4, 16)])[:, 0]
_QUADS = _quad_words()
_LAST_DIGIT = _last_digits()
#: the point after digit k = 1..15 (byte 7 + 2k), in the word that holds it
_POINTS = _words([bytes(8)] + [bytes((2 * k - 1) % 8) + b"."
                               + bytes(7 - (2 * k - 1) % 8)
                               for k in range(1, 16)])[:, 0]
#: keep bytes 0 .. 6 + 2 keep of a row: digits after digit keep and the
#: point after it go
_KEEP = _words([b"\xff" * (7 + 2 * keep) + bytes(33 - 2 * keep)
                for keep in range(17)])
_COMMA, _NEWLINE = _words([bytes(7) + b",", bytes(7) + b"\n"])[:, 0]


def _scaled(a: np.ndarray, k: np.ndarray):
    """hi, lo with hi + lo = a 10^(16 - k) exactly (Dekker)."""
    b = _POW10[16 - k]
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
    bh = c - (c - b)
    bl = b - bh
    hi = a * b
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return hi, lo


def _decade_step(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 as hi + lo is below, in or above [1e16, 1e17)."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.intp) - below


def _format_rows(block: np.ndarray) -> bytes:
    """The %.17g text of a float64 block: "," between entries, "\\n" after
    each row."""
    x = block.reshape(-1)
    ax = np.abs(x)
    fixed = (ax >= 1e-4) & (ax < 1e16)
    a = np.where(fixed, ax, 1.0)
    # the decimal exponent; where log10 rounds across a power of ten, step it
    k = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, k)
    step = _decade_step(hi, lo)
    off = np.flatnonzero(step)
    while off.size:
        k[off] += step[off]
        hi[off], lo[off] = _scaled(a[off], k[off])
        step[off] = _decade_step(hi[off], lo[off])
        off = off[step[off] != 0]
    # no double in [1e-4, 1e16) lies within 5e-18 (relative) below a power
    # of ten, so none rounds up to 10^17 here
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    top = digits // 10 ** 8
    lead = top // 10 ** 8
    top = (top - lead * 10 ** 8).astype(np.uint32)
    bottom = (digits % 10 ** 8).astype(np.uint32)
    quads = np.empty((x.size, 4), np.uint32)
    np.floor_divide(top, 10 ** 4, out=quads[:, 0])
    np.subtract(top, quads[:, 0] * 10 ** 4, out=quads[:, 1])
    np.floor_divide(bottom, 10 ** 4, out=quads[:, 2])
    np.subtract(bottom, quads[:, 2] * 10 ** 4, out=quads[:, 3])
    rows = np.empty((x.size, 5), np.uint64)
    rows[:, 0] = _HEADS[(np.signbit(x) * 10 + lead) * 20 + k + 4]
    rows[:, 1:] = _QUADS[quads]
    point = np.flatnonzero(k > 0)
    rows.reshape(-1)[point * 5 + (k[point] + 3) // 4] |= _POINTS[k[point]]
    # where digit 16 is a 0, the fraction's trailing zeros go, and the point
    # if nothing follows it
    zero = np.flatnonzero(quads[:, 3] % 10 == 0)
    last = _LAST_DIGIT[np.arange(4), quads[zero]].max(axis=1)
    rows[zero] &= _KEEP[np.maximum(last, k[zero])]
    # the other entries take % itself, nul-padded to four words
    other = np.flatnonzero(~fixed)
    text = np.array([b"%.17g" % v for v in x[other].tolist()], dtype="S32")
    rows[other, :4] = text.view(np.uint64).reshape(-1, 4)
    rows[other, 4] = 0
    ends = rows.reshape(len(block), -1, 5)
    ends[:, :-1, 4] |= _COMMA
    ends[:, -1, 4] |= _NEWLINE
    return rows.tobytes().translate(None, b"\0")


@dataclass(frozen=True)
class WitnessReport:
    variances: np.ndarray
    baselines: np.ndarray
    thresholds: np.ndarray
    verdicts: np.ndarray
    shots: int
    threshold_factor: float

    @property
    def passed(self) -> bool:
        return bool(self.verdicts.all())

    def to_json(self) -> str:
        return json.dumps({
            "variances": self.variances.tolist(),
            "vacuum_baselines": self.baselines.tolist(),
            "thresholds": self.thresholds.tolist(),
            "verdicts": self.verdicts.tolist(),
            "passed": self.passed,
            "shots": self.shots,
            "threshold_factor": self.threshold_factor,
        })


def witness_from_variances(variances, baselines: np.ndarray,
                           threshold_factor: float = 0.5,
                           shots: int = 0) -> WitnessReport:
    """Verdict: every row variance below factor * its vacuum baseline.

    baselines are the rows' vacuum variances, vacuum_variances(nulls).
    """
    variances = np.asarray(variances, dtype=float)
    thresholds = threshold_factor * baselines
    return WitnessReport(variances, baselines, thresholds,
                         variances < thresholds, shots, threshold_factor)


def _data_lines(fh):
    """(line number, text) of each row loadtxt reads from fh after its
    header line 1, skipping blank lines and # comments as loadtxt does."""
    for number, line in enumerate(iter(fh.readline, ""), 2):
        text = line.split("#", 1)[0].strip()
        if text:
            yield number, text


def _bad_line(path, n_modes: int):
    """Why the first faulty line of a shots CSV is refused, named by its
    line in the file: a byte that is not UTF-8, or a row after the header
    that is not n_modes finite numbers; None if no line is faulty.
    surrogateescape reads a bad byte b as the lone surrogate U+DC00 + b,
    which no UTF-8 text decodes to."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xdc00
                return f"line {number}: can't decode byte 0x{byte:02x} as UTF-8"
            # blank lines and # comments are skipped, as loadtxt does
            text = line.split("#", 1)[0].strip()
            if number == 1 or not text:
                continue
            entries = [e.strip() for e in text.split(",")]
            if len(entries) != n_modes:
                return (f"line {number}: expected {n_modes} entries, "
                        f"got {len(entries)}")
            for entry in entries:
                try:
                    # unlike float(), loadtxt reads ASCII digits, without _
                    if not entry.isascii() or "_" in entry:
                        raise ValueError
                    if not np.isfinite(float(entry)):
                        return f"line {number}: non-finite entry {entry!r}"
                except ValueError:
                    return f"line {number}: {entry!r} is not a number"


#: fewest shots per setting that ingest_samples accepts from a file
MIN_SHOTS = 100


# _read_rows parses a body as the inverse of _format_rows, in blocks of
# whole lines, with no Python per entry.  Each entry is [-] digits [. digits]
# [e [+-] 1-3 digits]; its digits give the integer D and the value is
# D 10^-s.  Its 8-byte words are gathered at any byte offset from two
# aligned loads, and each word of 8 ASCII digits becomes its value by three
# masked multiplies (Lemire, Softw. Pract. Exp. 51 (2021)).  The double is
# then the one strtod, and so np.loadtxt, returns:
# - D < 2^53 and 0 <= s <= 22: D and 10^s are exact, and one IEEE division
#   rounds their quotient correctly (Clinger, PLDI 1990);
# - 2^53 <= D < 10^17, 17 digits once a stripped trailing zero is put back,
#   as %.17g writes: c = D / 10^s or one of its neighbours, taken only if
#   _format_rows' own digits of c at that decade (_scaled, _decade_step)
#   are D.  Then "%.17g" % c is the text, and strtod of it is c;
# - any other entry, and one with no such c: float() of its bytes, which
#   parses what strtod does, as the bytes hold no space or _.
# A body that holds another byte than 0-9 , \n - + . e, a sign elsewhere
# than at an entry's start or after its e, a blank line, a ragged row, no
# final newline or a non-finite entry is declined: _load_csv then reads
# the file again with np.loadtxt, which accepts or refuses it as before.
# So is a block where more than a quarter of the entries would take
# float(): past that share the kernel reads slower than np.loadtxt.

#: bytes read at a time: a %.17g entry and its separator take 16 to 24
#: bytes, so a block holds about _CSV_BLOCK_ENTRIES of them.  Reading
#: 200000 x 16 shots peaks 2.2 MiB above its output (traced); of blocks of
#: 2**15 to 2**18 bytes this one read 10000 x 16 shots fastest on a 2-core
#: host
_CSV_BLOCK_BYTES = 16 * _CSV_BLOCK_ENTRIES
#: the word gathers reach 24 bytes before a block's first entry and 8
#: after its last
_CSV_PAD = 24

#: the kind of each byte that is not a digit; 0 is not in a _write_csv body
_SEP, _MINUS, _PLUS, _POINT, _E = 1, 2, 3, 4, 5
_BYTE_KIND = np.zeros(256, np.uint8)
_BYTE_KIND[list(b",\n-+.e")] = [_SEP, _SEP, _MINUS, _PLUS, _POINT, _E]
_U64_POW10 = np.array([10 ** s for s in range(20)], np.uint64)
_SIGN = np.array([1.0, -1.0])
#: int 10^n_frac < 10^17 for an integer part below _INT_BOUND[n_frac]
_INT_BOUND = np.array([10 ** max(17 - j, 0) for j in range(25)], np.uint64)
#: word j of a digit run ends 8 j bytes before its end; of a run of count
#: digits, it keeps its high min(max(count - 8 j, 0), 8) bytes
_WORD_ENDS = np.array([[8], [16], [24]], np.intp)
_WORD_KEEP = np.array([[~(2 ** (64 - 8 * min(max(c - 8 * j, 0), 8)) - 1)
                        % 2 ** 64 for c in range(25)] for j in range(3)],
                      np.uint64)


def _swar8(v: np.ndarray) -> np.ndarray:
    """Values of words of 8 digits, one in each byte's low nibble, the
    first in the lowest byte."""
    u = np.uint64
    v = ((v & u(0x0F0F0F0F0F0F0F0F)) * u(10 * 256 + 1)) >> u(8)
    v = ((v & u(0x00FF00FF00FF00FF)) * u(100 * 2 ** 16 + 1)) >> u(16)
    return ((v & u(0x0000FFFF0000FFFF)) * u(10000 * 2 ** 32 + 1)) >> u(32)


def _digit_words(words: np.ndarray, end: np.ndarray, count: np.ndarray,
                 k: int) -> np.ndarray:
    """(k, F): word j holds the 8 bytes that end 8 j bytes before end, read
    from the aligned words of the buffer, with the bytes that precede the
    last count bytes before end zeroed."""
    first = end - _WORD_ENDS[:k]
    shift = ((first & 7) << 3).view(np.uint64)
    first >>= 3
    w = words.take(first) >> shift
    first += 1
    # a shift by 64 gives 0 in numpy
    w |= words.take(first) << (np.uint64(64) - shift)
    w &= _WORD_KEEP[:k].take(count, axis=1)
    return w


def _parse_block(buf: np.ndarray, start: int, stop: int, n: int,
                 out: np.ndarray) -> int:
    """Parse the whole lines buf[start:stop] of n entries each into the
    start of out; the number of entries, or 0 where the block is
    declined."""
    body = buf[start:stop]
    punct = np.flatnonzero((body - np.uint8(48)) > 9)
    kind = _BYTE_KIND.take(body.take(punct))
    punct += start
    if not kind.all():
        return 0
    is_sep = kind == _SEP
    ends = punct.take(np.flatnonzero(is_sep))
    f = ends.size
    if (f > out.size or not (buf.take(ends[n - 1::n]) == 10).all()
            or np.count_nonzero(buf.take(ends) == 10) * n != f):
        return 0
    out = out[:f]
    words = buf.view(np.uint64)
    starts = np.empty(f, np.intp)
    starts[0] = start
    np.add(ends[:-1], 1, out=starts[1:])
    neg = buf.take(starts) == 45
    # the other punctuation: as many separators precede each as its index
    # among all punctuation less its index among the rest
    inner = np.flatnonzero(~is_sep)
    field = inner - np.arange(inner.size)
    pos = punct.take(inner)
    kind = kind.take(inner)
    slow = np.zeros(f, bool)
    mant_end, exp, signs = ends, 0, np.count_nonzero(neg)
    e = np.flatnonzero(kind == _E)
    if e.size:
        epos, ef = pos.take(e), field.take(e)
        if not (np.diff(ef) > 0).all():
            return 0
        mant_end = ends.copy()
        mant_end[ef] = epos
        esign = buf.take(epos + 1)
        signed = (esign == 45) | (esign == 43)
        signs += np.count_nonzero(signed)
        e_end = ends.take(ef)
        digits = e_end - epos - 1 - signed
        slow[ef] = (digits < 1) | (digits > 3)
        value = _swar8(_digit_words(words, e_end, np.clip(digits, 0, 3),
                                    1)[0]).view(np.int64)
        exp = np.zeros(f, np.int64)
        exp[ef] = np.where(esign == 45, -value, value)
    # every sign opens its entry or follows its e
    if np.count_nonzero((kind == _MINUS) | (kind == _PLUS)) != signs:
        return 0
    p = np.flatnonzero(kind == _POINT)
    pf = field.take(p)
    if not (np.diff(pf) > 0).all():
        return 0
    if p.size == f and mant_end is ends:
        # one point in each entry, and no e
        point = pos.take(p)
        n_frac = ends - point
        n_frac -= 1
    else:
        point = mant_end.copy()
        point[pf] = pos.take(p)
        n_frac = mant_end - point
        n_frac[pf] -= 1
    n_int = point - starts
    n_int -= neg
    s = n_frac - exp
    # a point after the e leaves n_frac < 0; D 10^1 of a 16-digit D takes
    # s = -1 to 0
    slow |= ((n_int > 16) | (n_frac < 0) | (n_frac > 24)
             | (n_int + n_frac < 1) | (s < -1) | (s > 22))
    if np.count_nonzero(slow) * 4 > f:
        return 0
    np.clip(n_int, 0, 16, out=n_int)
    np.clip(n_frac, 0, 24, out=n_frac)
    wide = n_int.max() > 8
    c = np.empty((5 if wide else 4, f), np.uint64)
    c[:3] = _digit_words(words, mant_end, n_frac, 3)
    c[3:] = _digit_words(words, point, n_int, 2 if wide else 1)
    c = _swar8(c)
    int_val = c[3] + c[4] * np.uint64(10 ** 8) if wide else c[3]
    # D = int 10^n_frac + frac, exact where both terms are below 10^17
    slow |= (c[2] >= 10) | (int_val >= _INT_BOUND.take(n_frac))
    d = int_val * _U64_POW10.take(np.minimum(n_frac, 19))
    d += c[2] * np.uint64(10 ** 16)
    d += c[1] * np.uint64(10 ** 8)
    d += c[0]
    np.divide(d, _POW10.take(np.clip(s, 0, 22)), out=out)
    big = d >= 2 ** 53
    slow |= ~big & (s < 0)
    big = np.flatnonzero(big & ~slow)
    if big.size:
        d = d.take(big)
        lift = d < 10 ** 16
        d *= _U64_POW10.take(lift.view(np.uint8))
        s = s.take(big) + lift
        # D < 10^17 here: its frac part has n_frac digits
        fits = (s >= 0) & (s <= 22)
        if not fits.all():
            slow[big[~fits]] = True
            big, d, s = big[fits], d[fits], s[fits]
        at, d = big, d.view(np.int64)
        cand = d.astype(np.float64) / _POW10.take(s)
        k = 16 - s
        for _ in range(2):
            hi, lo = _scaled(cand, k)
            got = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
            out.put(at, cand)
            bad = got != d
            # D >= 10^16, so a candidate off the decade can match only
            # D = 10^16, from below; the writer's decade check refuses it
            edge = np.flatnonzero(d == 10 ** 16)
            bad[edge] |= _decade_step(hi.take(edge), lo.take(edge)) != 0
            bad = np.flatnonzero(bad)
            at, d, k, cand, got = (at.take(bad), d.take(bad), k.take(bad),
                                   cand.take(bad), got.take(bad))
            # the neighbour towards the text's digits: cand is positive
            cand = (cand.view(np.int64)
                    + np.where(got > d, -1, 1)).view(np.float64)
        slow[at] = True
    out *= _SIGN.take(neg.view(np.uint8))
    slow = np.flatnonzero(slow)
    if slow.size:
        text = buf[:stop].tobytes()
        try:
            out[slow] = [float(text[a:b]) for a, b in
                         zip(starts.take(slow).tolist(),
                             ends.take(slow).tolist())]
        except ValueError:
            return 0
        if not np.isfinite(out.take(slow)).all():
            return 0
    return f


def _read_rows(path, n_modes: int):
    """The shots of a _write_csv file as float64 rows, bit for bit what
    np.loadtxt reads, or None where the kernel declines the file."""
    header = _csv_header(n_modes).encode() + b"\n"
    size = _CSV_BLOCK_BYTES
    buf = np.zeros(_CSV_PAD + 2 * size + 8, np.uint8)
    with open(path, "rb") as fh:
        if fh.readline() != header:
            return None
        body = fh.tell()
        rows = 0
        while got := fh.readinto(memoryview(buf)[:size]):
            rows += np.count_nonzero(buf[:got] == 10)
        fh.seek(body)
        if not rows or n_modes < 1:
            return None
        out = np.empty((rows, n_modes))
        flat = out.reshape(-1)
        done = carry = 0
        while True:
            # carry: bytes of a line that the last block did not end
            if _CSV_PAD + carry + size + 8 > buf.size:
                buf = np.concatenate([buf, np.zeros(buf.size, np.uint8)])
            got = fh.readinto(memoryview(buf)[_CSV_PAD + carry:
                                              _CSV_PAD + carry + size])
            if not got:
                break
            end = _CSV_PAD + carry + got
            stop = _CSV_PAD + 1 + bytes(buf[_CSV_PAD:end]).rfind(b"\n")
            if stop == _CSV_PAD:
                carry += got
                continue
            count = _parse_block(buf, _CSV_PAD, stop, n_modes, flat[done:])
            if not count:
                return None
            done += count
            carry = end - stop
            buf[_CSV_PAD:_CSV_PAD + carry] = buf[stop:end]
        if carry or done != flat.size:
            return None
    return out


def _load_csv(path, n_modes: int) -> np.ndarray:
    """The shots of a _write_csv file, header checked, every entry finite.

    _read_rows reads them; a file that it declines is read by np.loadtxt,
    and a faulty one is refused with the first faulty line it names."""
    data = _read_rows(path, n_modes)
    if data is None:
        data = _loadtxt_rows(path, n_modes)
    if data.shape[0] < MIN_SHOTS:
        raise GraphStateError(
            f"insufficient shots in {path}: {data.shape[0]} < {MIN_SHOTS}")
    return data


def _loadtxt_rows(path, n_modes: int) -> np.ndarray:
    """The rows np.loadtxt reads from a shots CSV after its header; a
    GraphStateError that names the file where it is faulty."""
    expected = _csv_header(n_modes)
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != expected:
                raise GraphStateError(f"malformed CSV {path}: header "
                                      f"{header!r}, expected {expected!r}")
            # loadtxt warns on a body without data; find its first row here
            body = fh.tell()
            if next(_data_lines(fh), None) is None:
                raise GraphStateError(f"no shots in {path}")
            fh.seek(body)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
            if data.shape[1] != n_modes or not np.isfinite(data).all():
                raise ValueError("a row is not finite numbers")
    except GraphStateError:
        raise
    except ValueError as exc:
        # a UnicodeDecodeError counts from its chunk and loadtxt counts rows
        # in two ways; read the file again to name the first faulty line
        raise GraphStateError(f"malformed CSV {path}: "
                              f"{_bad_line(path, n_modes) or exc}") from None
    return data


def empirical_variances(data_q: np.ndarray, data_p: np.ndarray,
                        nulls: NullifierSet) -> np.ndarray:
    """Sample variance of each quadrature-pure nullifier row.

    data_q and data_p hold q- and p-setting shots (rows are shots, columns
    are modes); a row with p coefficients is evaluated on the p data, any
    other row on the q data.  Each setting needs at least 2 shots.
    """
    if min(len(data_q), len(data_p)) < 2:
        raise GraphStateError(
            f"a sample variance needs at least 2 shots in each setting, got "
            f"{len(data_q)} q and {len(data_p)} p shots")
    if not nulls.quadrature_pure():
        raise GraphStateError(
            "the two settings can only evaluate quadrature-pure nullifiers")
    on_p = np.any(nulls.coeff_p != 0, axis=1)
    variances = np.empty(nulls.n_rows)
    variances[on_p] = (data_p @ nulls.coeff_p[on_p].real.T).var(0, ddof=1)
    variances[~on_p] = (data_q @ nulls.coeff_q[~on_p].real.T).var(0, ddof=1)
    return variances


def ingest_samples(q_path, p_path, nulls: NullifierSet):
    """Estimate quadrature-pure nullifier variances from two-setting data.

    Returns (empirical covariances dict, WitnessReport); rows built from q
    coefficients use the q-setting file and likewise for p.  A file that is
    not UTF-8, has another header than mode_0,...,mode_{n-1}, holds an entry
    that is not a number, a row of another width, no row, a non-finite entry
    or fewer than MIN_SHOTS rows raises a GraphStateError that names it; a
    bad row, or a byte that is not UTF-8, is named by its line in the file,
    the header being line 1.
    """
    n = nulls.n_modes
    data_q = _load_csv(q_path, n)
    data_p = _load_csv(p_path, n)
    variances = empirical_variances(data_q, data_p, nulls)
    shots = min(data_q.shape[0], data_p.shape[0])
    report = witness_from_variances(variances, vacuum_variances(nulls),
                                    shots=shots)
    cov = {"q": np.cov(data_q.T), "p": np.cov(data_p.T)}
    return cov, report
