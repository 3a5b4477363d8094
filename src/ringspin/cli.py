"""Command-line surface: sweep tables as CSV/JSON plus self-validation.

Commands
--------
spectrum    eigenvalue table of one (N, M) model
probmap     window-averaged transfer probabilities over all (M, target)
jmap        truncation errors over all (M, target) plus per-M averages
threshold   minimal accurate truncation radius per chain length, with audit
fit         per chain length, the scale kappa of the mean error curve
            against the exact state-level error E(M) over radii
            2..max_neighbors-1, and the rms of its residuals
validate    the `oracle` checks of the closed form; nonzero exit on failure

A table is a name and its columns, as a dict: a command returns
{table name: {column name: values}} in output order, one 1-D array or
sequence per column, and each table is formatted straight from its
columns: one of at least 128 rows from one byte array of fixed-slot cells
with NUL in the unused slots, dropped by one bytes.translate, and a smaller
one value at a time by `%`.  The array rounds the digits itself for
1e-30 <= |x| < 1e15 and leaves other values and exact ties to `%`, so both
give the bytes of `%d` and `%.15g`.  Values are written with 15
significant digits in both formats, so CSV and JSON parse back to identical
numbers; JSON writes one row per line, and a float column stays a JSON
float even where its value is integral.  A value that is not finite is
refused in both formats.  Exit codes: 0 success, 1 validation failure,
2 bad configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .chain import ChainSpec, CouplingProfile, dipolar_ratios, max_neighbors
from .fitting import fit_scale
from .metrics import (
    TimeWindow,
    accuracy_threshold,
    error_map,
    independent_targets,
    probability_map,
    state_error,
)
from .spectral import eigenvalue_shifts, mode_multiplicities, wave_numbers

__all__ = ["entry", "main"]


_LARGEST_FINITE_TEXT = 1.797693134862315e308  # larger floats print as 1.79769313486232e+308 = inf


def _words(texts) -> np.ndarray:
    """Byte strings of 4 as uint32 words that hold those bytes in that order."""
    return np.frombuffer(b"".join(texts), dtype=np.uint32)


# --- tables written from one byte array ------------------------------------
# A table of at least _ARRAY_ROWS rows is one matrix of 4-byte words, a row
# of words per table row, with every byte of a cell in a fixed slot and the
# unused slots NUL; one bytes.translate drops the NULs.  A float cell is
#   2 words   separator, sign, and the "0.000" lead of fixed notation below 1
#   5 words   3 significant digits each, with a "." after any of them
#   1 word    the exponent, or a JSON ".0"
# and an integer cell is separator and sign, then 3 digits per word.
_ARRAY_ROWS = 128  # the routes cross at 100-150 rows: the array costs 0.1-0.2 ms to set up
_BLOCK = 4096      # rows per pass: small temporaries, reused from pass to pass
_FLOAT_WORDS = 8
_DIGITS = np.indices((10,) * 3, dtype=np.uint8).reshape(3, -1).T + ord("0")  # "000".."999"
# [((kept * 4) + dot) * 1000 + q]: the first `kept` digits of q < 1000, with
# a "." after the dot-th of them if dot > 0
_CHUNKS = np.zeros((4, 4, 1000, 4), dtype=np.uint8)
for _kept in range(4):
    _CHUNKS[_kept, :, :, :_kept] = _DIGITS[:, :_kept]
    for _dot in range(1, _kept + 1):
        _CHUNKS[_kept, _dot, :, _dot + 1 : _kept + 1] = _DIGITS[:, _dot:_kept]
        _CHUNKS[_kept, _dot, :, _dot] = ord(".")
_CHUNKS = _CHUNKS.reshape(-1).view(np.uint32)
_TRAILING = np.zeros(1000, dtype=np.intp)  # trailing zeros of q < 1000, 3 for q = 0
for _k in range(1, 4):
    _TRAILING[:: 10**_k] += 1
# [q] and [1000 + q]: q < 1000 in full and with its leading zeros NUL
_INT_CHUNKS = np.zeros((2, 1000, 4), dtype=np.uint8)
_INT_CHUNKS[:, :, 1:] = _DIGITS
_INT_CHUNKS[1, :, 1:] *= np.maximum.accumulate(_DIGITS != ord("0"), axis=1)
_INT_CHUNKS = _INT_CHUNKS.reshape(-1).view(np.uint32)
_INT_ZERO, _MINUS = _words([b"\0\0\0" + b"0", b"\0\0-\0"])
# the layout of a float cell from its form (e + 32) * 16 + nd: exponent e of
# its first digit, -32..16, and nd significant digits, 0 (for zero) to 15
_E, _ND = np.divmod(np.arange(49 * 16), 16)
_E -= 32
_FIXED = (_E >= -4) & (_E < 15)
_WHOLE = _FIXED & (_E >= 0)
_POINT = _WHOLE * _E  # "." after this digit, when digits follow it, except below 1
_DOTTED = (_WHOLE | ~_FIXED) & (_ND > _POINT + 1)
_SHOWN = np.where(_WHOLE, np.maximum(_ND, _E + 1), _ND)
_OFFSETS = [(np.minimum(np.maximum(_SHOWN - 3 * j, 0), 3) * 4
             + (_DOTTED & (_POINT // 3 == j)) * (1 + _POINT % 3)) * 1000 for j in range(5)]
# [sign * 784 + form]: separator slots, sign, and "0.000"[:1 - e] for e = -1..-4
_LEADS = _words((b"\0\0" + s + (b"0.000"[: 1 - e] if -4 <= e < 0 else b"")).ljust(8, b"\0")
                for s in (b"\0", b"-") for e in range(-32, 17))
_LEADS = np.repeat(_LEADS.reshape(-1, 2), 16, axis=0).T.copy()
_EXPONENTS = np.repeat(_words(b"\0" * 4 if -4 <= e < 15 else b"e%+03d" % e
                              for e in range(-32, 17)), 16)
_TAILS = {"csv": _EXPONENTS,
          "json": np.where(_WHOLE & ~_DOTTED, _words([b".0\0\0"]), _EXPONENTS)}
# 10^(i - 1) for i = 1..45 as hi + lo, within 2^-106 relative, and 0 for i = 0, 46
_POW10 = [float(10**k) for k in range(45)]
_POW10_HI = np.array([0.0, *_POW10, 0.0])
_POW10_LO = np.array([0.0, *(float(10**k - int(p)) for k, p in enumerate(_POW10)), 0.0])
_VELTKAMP = 2.0**27 + 1.0


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo exactly, each with at most 26 bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HALVES = _halves(_POW10_HI)


def _float_cells(x: np.ndarray, fmt: str, words: np.ndarray) -> np.ndarray:
    """Write `%.15g` of the floats x into float cells and return the
    indices of the values left to `%`.

    For 1e-30 <= |x| < 1e15, e = floor(log10 |x|) and |x| 10^(14 - e), a
    number in [1e14, 1e15), is taken as p + r to within 2e-16 by Dekker's
    exact two-product of |x| with the leading double of the power and a
    product with its remainder, and rounded half to even to 15 digits.
    Left to `%`: other nonzero values, a residual r within 1e-9 of 1/2
    (exact ties), and a log10 off by one (p + r outside [1e14, 1e15))."""
    a = np.abs(x)
    inside = (a >= 1e-30) & (a < 1e15)
    a[~inside] = 1.0
    i = 15 - np.floor(np.log10(a)).astype(np.intp)  # 0..46: 10^(i - 1) brings a to 15 digits
    (a_hi, a_lo), b_hi, b_lo = _halves(a), _POW10_HALVES[0][i], _POW10_HALVES[1][i]
    p = a * _POW10_HI[i]
    r = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo + a * _POW10_LO[i]
    digits = np.floor(p)
    r += p - digits
    carry = np.floor(r)
    digits += carry
    r -= carry
    slow = (np.abs(r - 0.5) < 1e-9) | (digits < 1e14) | (digits >= 1e15) | ~inside & (x != 0)
    digits += r > 0.5
    up = digits == 1e15  # rounds up to 1e15: one decade up
    digits[up], i[up] = 1e14, i[up] - 1
    digits[slow | ~inside], i[slow | ~inside] = 0.0, 15  # zeros, and `%` values, write "0"
    q = [np.floor(digits / 1e12)]  # 3-digit chunks, exact below 2^53
    for scale in (1e9, 1e6, 1e3, 1.0):
        digits -= q[-1] * (scale * 1e3)
        q.append(np.floor(digits / scale))
    q = [c.astype(np.intp) for c in q]
    zeros = _TRAILING[q[0]]
    for c in q[1:]:
        zeros = _TRAILING[c] + (c == 0) * zeros
    form = (47 - i) * 16 + 15 - zeros  # (e + 32) * 16 + nd
    for j, c in enumerate(q):
        words[:, 2 + j] = _CHUNKS[_OFFSETS[j][form] + c]
    words[:, 7] = _TAILS[fmt][form]
    form += np.signbit(x) * len(_E)
    words[:, 0], words[:, 1] = _LEADS[0][form], _LEADS[1][form]
    return slow.nonzero()[0]


def _int_cells(v: np.ndarray, words: np.ndarray) -> None:
    """Write `%d` of the integers v into cells of a sign word and 3-digit words."""
    negative = v < 0
    size = v.astype(np.uint64)
    size[negative] = 0 - size[negative]  # modulo 2^64: exact for every int64
    words[:, 0] = negative * _MINUS
    leading = np.ones(v.size, dtype=bool)  # every chunk so far is 0
    chunks = words.shape[1] - 1
    for j in range(chunks):
        scale = np.uint64(10 ** (3 * (chunks - 1 - j)))
        q = size if chunks == 1 else size // scale % np.uint64(1000)
        words[:, 1 + j] = _INT_CHUNKS[q.astype(np.intp) + leading * 1000]
        leading &= q == 0
    words[leading, -1] = _INT_ZERO


def _array_body(columns: list[np.ndarray], fmt: str) -> str:
    """All rows as text from one matrix of words, one row per table row."""
    head, sep, end = (b"", b",", b"\r\n") if fmt == "csv" else (b"[", b", ", b"],\n")
    sizes = [_FLOAT_WORDS if c.dtype.kind not in "biu"
             else 1 + (len(str(max(-int(c.min()), int(c.max())))) + 2) // 3 for c in columns]
    offsets = np.cumsum([0, *sizes])
    prefixes = _words(s.ljust(4, b"\0") for s in [head] + [sep] * (len(columns) - 1))
    rows = len(columns[0])
    matrix = np.zeros((rows, offsets[-1] + 1), dtype=np.uint32)
    matrix[:, -1] = _words([end.ljust(4, b"\0")])
    text = matrix.view(np.uint8)
    for lo in range(0, rows, _BLOCK):
        for c, first, last, prefix in zip(columns, offsets, offsets[1:], prefixes):
            cells = matrix[lo : lo + _BLOCK, first:last]
            if c.dtype.kind in "biu":
                _int_cells(c[lo : lo + _BLOCK], cells)
            else:
                x = c[lo : lo + _BLOCK]
                slow = _float_cells(x, fmt, cells)
                if slow.size:  # their text by `%`, after the separator
                    width = 4 * (last - first) - 2
                    text[lo + slow, 4 * first + 2 : 4 * last] = np.frombuffer(
                        "".join(s.ljust(width, "\0") for s in _float_texts(x[slow], fmt))
                        .encode("ascii"), dtype=np.uint8).reshape(-1, width)
            cells[:, 0] |= prefix
    body = matrix.tobytes().translate(None, b"\0").decode("ascii")
    return body if fmt == "csv" else body[:-2]


def _float_texts(values: np.ndarray, fmt: str) -> list[str]:
    """`%.15g` of each float; in JSON with ".0" where that text reads as an
    integer, so it parses back as a float."""
    texts = list(map("%.15g".__mod__, values.tolist()))
    return texts if fmt == "csv" else [s + ".0" if s.lstrip("-").isdigit() else s for s in texts]


def _body(name: str, columns: dict, fmt: str) -> str:
    """All rows as text: `%d` for an integer column, `%.15g` (`_float_texts`)
    for a float column.  Both formats refuse a non-finite float.  A table of
    at least _ARRAY_ROWS rows is written from one byte array and a smaller
    one value by value; both give the same bytes."""
    arrays = [np.asarray(c) for c in columns.values()]
    arrays = [c if c.dtype.kind in "biu" else np.asarray(c, dtype=float) for c in arrays]
    for column, c in zip(columns, arrays):
        if c.dtype.kind == "f" and not (np.abs(c) <= _LARGEST_FINITE_TEXT).all():
            raise ValueError(f"table {name!r}, column {column!r}: value is not finite")
    if len(arrays[0]) >= _ARRAY_ROWS:
        return _array_body(arrays, fmt)
    cells = [list(map("%d".__mod__, c.tolist())) if c.dtype.kind in "biu"
             else _float_texts(c, fmt) for c in arrays]
    head, sep, tail = ("", ",", "\r\n") if fmt == "csv" else ("[", ", ", "]")
    return ("" if fmt == "csv" else ",\n").join(head + sep.join(row) + tail
                                                 for row in zip(*cells))


def _emit(tables: dict[str, dict], fmt: str, out: str | None) -> None:
    if fmt == "json":  # the object json.dumps would give, one row per line
        texts = ["{" + ",\n".join(
            f'{json.dumps(name)}: {{"columns": {json.dumps([*columns])}, '
            f'"rows": [\n{_body(name, columns, fmt)}\n]}}'
            for name, columns in tables.items()) + "}\n"]
    else:  # csv: primary table to `out`, companions to <stem>_<name><suffix>
        texts = [",".join(columns) + "\r\n" + _body(name, columns, fmt)
                 for name, columns in tables.items()]
    for i, (name, text) in enumerate(zip(tables, texts)):
        if out:
            path = Path(out) if i == 0 else Path(out).with_name(
                f"{Path(out).stem}_{name}{Path(out).suffix or '.csv'}")
            path.write_text(text, newline="")
            if i > 0:
                print(f"wrote companion table {name!r} to {path}", file=sys.stderr)
        else:
            if len(texts) > 1:  # csv only: json is one text
                sys.stdout.write(f"# table: {name}\r\n")
            sys.stdout.write(text)


def _parse_profile(text: str, nodes: int) -> CouplingProfile:
    if text == "dipolar":
        return dipolar_ratios(nodes)
    if text.startswith("custom:"):
        path = Path(text[len("custom:"):])
        lines = [ln.strip() for ln in path.read_text().splitlines()]
        ratios = [float(ln) for ln in lines if ln]
        profile = CouplingProfile(tuple(ratios), kind="custom")
        if len(profile) < max_neighbors(nodes):
            raise ValueError(
                f"profile file lists {len(profile)} couplings; "
                f"{nodes} nodes need {max_neighbors(nodes)}"
            )
        return profile
    raise ValueError(f"profile must be 'dipolar' or 'custom:<path>', got {text!r}")


def _rings(args):
    """(nodes, profile, window) of each ring that --n or --n-list names, in
    the order given, repeats included."""
    lengths = [args.n] if args.n is not None else [
        int(tok) for tok in args.n_list.split(",") if tok.strip()]
    if not lengths:
        raise ValueError(f"--n-list names no ring size: {args.n_list!r}")
    for nodes in lengths:  # the profile first: its refusal comes before the window's
        yield (nodes, _parse_profile(args.profile, nodes),
               TimeWindow.matched(nodes) if args.t_max is None else TimeWindow(args.t_max))


def cmd_spectrum(args) -> dict:
    nodes = args.n
    spec = ChainSpec(nodes, max_neighbors(nodes) if args.m is None else args.m)
    profile = _parse_profile(args.profile, nodes)
    mult = mode_multiplicities(nodes)
    return {"spectrum": {"mode": np.arange(1, mult.size + 1),
                         "wave_number": wave_numbers(nodes),
                         "eigenvalue": eigenvalue_shifts(spec, profile)[0],
                         "multiplicity": mult}}


def _map_columns(nodes: int, surface: np.ndarray, name: str) -> dict:
    """neighbors, target and `name` columns of an (M, target) map, rows in order."""
    targets = independent_targets(nodes)
    return {"neighbors": np.repeat(np.arange(1, len(surface) + 1), len(targets)),
            "target": np.tile(targets, len(surface)), name: surface.ravel()}


def cmd_probmap(args) -> dict:
    probs = probability_map(*next(_rings(args)))
    return {"probability": _map_columns(args.n, probs, "avg_probability")}


def cmd_jmap(args) -> dict:
    errors, means = error_map(*next(_rings(args)))
    return {"error": _map_columns(args.n, errors, "error"),
            "error_avg": {"neighbors": np.arange(1, len(means) + 1), "mean_error": means}}


def cmd_threshold(args) -> dict:
    lengths, results = zip(*[(nodes, accuracy_threshold(nodes, profile, args.epsilon, window))
                             for nodes, profile, window in _rings(args)])
    worst = [r.max_error_per_m for r in results]
    return {
        "threshold": {"nodes": lengths,
                      "min_neighbors": [r.min_neighbors for r in results]},
        "audit": {"nodes": np.repeat(lengths, [w.size for w in worst]),
                  "neighbors": np.concatenate([np.arange(1, w.size + 1) for w in worst]),
                  "max_error": np.concatenate(worst)},
    }


def cmd_fit(args) -> dict:
    rows = []
    for nodes, profile, window in _rings(args):
        nf = max_neighbors(nodes)
        if nf - 2 < 5:
            raise ValueError(f"chain of {nodes} nodes is too short to fit (need >= 5 points)")
        _, means = error_map(nodes, profile, window)
        # radii 2..nf-1: the last radius is the reference, with zero error
        kappa, rms = fit_scale(means[1 : nf - 1], state_error(nodes, profile, window)[1 : nf - 1])
        rows.append((nodes, window.t_max, 2, nf - 1, kappa, rms))
    names = ("nodes", "t_max", "first_neighbors", "last_neighbors", "kappa", "rms")
    return {"fit": dict(zip(names, zip(*rows)))}


def cmd_validate(args) -> int:
    from .oracle import validation_checks  # only validate loads the oracles
    checks = validation_checks(args.quad_step)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: "
              f"max deviation {c.deviation:.3e} (tol {c.tolerance:g})")
    return 0 if all(c.passed for c in checks) else 1


# --- argument parsing ------------------------------------------------------

@functools.cache  # parse_args leaves the parser as it was, so one tree serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringspin",
        description="One-excitation dynamics on closed homogeneous spin chains "
        "under the M-neighbor approximation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--profile", default="dipolar",
                        help="coupling profile: dipolar | custom:<path>")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="output path (stdout if omitted)")

    single = argparse.ArgumentParser(add_help=False)
    single.add_argument("--n", type=int, required=True, help="ring size")

    multi = argparse.ArgumentParser(add_help=False)
    lengths = multi.add_mutually_exclusive_group(required=True)
    lengths.add_argument("--n", type=int, default=None, help="single ring size")
    lengths.add_argument("--n-list", default=None, help="comma-separated ring sizes")

    windowed = argparse.ArgumentParser(add_help=False)
    windowed.add_argument("--t-max", type=float, default=None,
                          help="averaging window (default: T = N)")

    p = sub.add_parser("spectrum", parents=[common, single],
                       help="eigenvalue table for one model")
    p.add_argument("--m", type=int, default=None,
                   help="interacting-neighbor count (default: all-node)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("probmap", parents=[common, single, windowed],
                       help="averaged transfer probabilities over (M, target)")
    p.set_defaults(func=cmd_probmap)

    p = sub.add_parser("jmap", parents=[common, single, windowed],
                       help="truncation errors over (M, target) plus averages")
    p.set_defaults(func=cmd_jmap)

    p = sub.add_parser("threshold", parents=[common, multi, windowed],
                       help="minimal accurate truncation radius per chain length")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("fit", parents=[common, multi, windowed],
                       help="scale of the mean error curve against E(M) per chain length")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("validate", help="closed form vs brute-force oracles")
    p.add_argument("--quad-step", type=float, default=1e-3,
                   help="Simpson step for the quadrature cross-check")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.func(args)
        if isinstance(result, int):
            return result
        _emit(result, args.format, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
