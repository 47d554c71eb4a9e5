"""Command-line surface: single-value queries, sweeps as CSV, verification.

Subcommands: gap, capacity, ergodic, secrecy, sample, verify. SNRs are
accepted in dB (matching the figures) and converted once at this boundary;
all CSV values carry 9 significant digits with LF line endings. Each command
builds its whole output (`sample` checks every draw, then streams its rows)
and returns it with its exit code and stderr note to `main`, the one writer,
so a usage error leaves stdout empty, no --out file and one stderr line.

Exit codes: 0 success, 1 usage error (including an output that cannot be
written, and `sample` or `verify` without numpy), 2 numeric
non-convergence, 3 verification failure. A closed or full stderr gets
nothing and changes no exit code.
"""

import argparse
import contextlib
import math
import os
import sys
import warnings

from . import fading as _fading
from . import gg_noise as _gg
from .capacity import (
    ChannelConfig,
    awggn_bounds,
    ergodic_bounds,
    gap,
)
from .config import SimConfig
from .numerics import DEFAULT_RTOL, DomainError, QuadratureError, integer, to_units
from .secrecy import (
    SecrecyScenario,
    secrecy_positive,
    secrecy_rate_awggn,
    secrecy_threshold,
)


_MAX_ROWS = 10**7  # the most range values or draws one command may build
_BLOCK = 1 << 13  # draws that `sample` formats and writes at a time


def _capped(what, count):
    if not count <= _MAX_ROWS:
        raise DomainError("%s must not exceed %d, got %s" % (what, _MAX_ROWS, count))
    return count


class _Help(Exception):
    """-h or --help: carries the help text, which `main` writes to stdout as the command's output."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


def _fmt(x):
    return "%.9g" % x


def _db_to_linear(db):
    if math.isnan(db):
        raise DomainError("%s dB is not a number" % _fmt(db))
    try:
        if db < math.inf:
            return 10.0 ** (db / 10.0)
    except OverflowError:
        pass
    raise DomainError("%s dB is past the float range as a linear SNR" % _fmt(db))


def _parse_range(text):
    """Parse 'lo:hi:step' (or a single value) into an ascending value list."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            lo, hi, step = (float(p) for p in parts)
        else:
            raise ValueError
    except ValueError:
        raise DomainError("range must be 'lo:hi:step' or a single number, got %r" % text)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise DomainError("range values must be finite, got %r" % text)
    if step == 0:
        raise DomainError("range step must be nonzero")
    lo, hi, step = min(lo, hi), max(lo, hi), abs(step)
    _capped("range size", (hi - lo) / step + 1.0)  # before anything is built; inf too
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(count)]


def _csv(header, rows):
    """A whole CSV table: the header, then each row's values at %.9g ("%.9g" % True is "1")."""
    line = ",".join(["%.9g"] * (header.count(",") + 1)) + "\n"
    return header + "\n" + "".join([line % row for row in rows])


def _to_null(stream):
    """Point a `stream` that failed a write at the null device, so what it buffers cannot fail the flush at exit."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def _emit(chunks, out):
    """Write the text pieces `chunks` in order to stdout or to the file `out`.

    Each piece is written before the next is taken, so a generator of blocks
    is never held whole. A target that cannot be written (a stdout closed at
    start or on a full device, an `--out` path in a missing directory) is a
    usage error that names it, except a reader that closes stdout early: that
    ends the output quietly, and the command keeps its exit code.
    """
    stdout = out in (None, "-", "stdout")
    if stdout and sys.stdout is None:
        raise DomainError("cannot write stdout: it is closed")
    try:
        with (contextlib.nullcontext(sys.stdout) if stdout else open(out, "w", newline="")) as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
    except OSError as exc:
        if stdout:
            _to_null(sys.stdout)
            if isinstance(exc, BrokenPipeError):
                return
        raise DomainError("cannot write %s: %s" % ("stdout" if stdout else out, exc.strerror or exc))


def cmd_gap(args, config):
    betas = sorted(args.betas)
    nats = [gap(b, "nats") for b in betas]
    return 0, [_csv("beta,gap_bits,gap_nats", [(b, to_units(g, "bits"), g) for b, g in zip(betas, nats)])], ""


def _bounds_sweep(args, bounds_at):
    """The sandwich table of `bounds_at(linear SNR)` over the --snr-db range."""
    sweep = [(snr_db, bounds_at(_db_to_linear(snr_db))) for snr_db in _parse_range(args.snr_db)]
    return 0, [_csv("snr_db,lower,upper", [(snr_db, b.lower, b.upper) for snr_db, b in sweep])], ""


def cmd_capacity(args, config):
    noise = _gg.with_variance(args.beta, 1.0)
    return _bounds_sweep(args, lambda snr: awggn_bounds(ChannelConfig(snr, noise), args.units))


def cmd_ergodic(args, config):
    law = _fading.unit_power(args.alpha, args.mu)
    return _bounds_sweep(args, lambda snr: ergodic_bounds(snr, law, args.beta, config.quad_rtol, args.units))


def cmd_secrecy(args, config):
    snr_se = _db_to_linear(args.snr_se_db)
    condition = "printed" if args.as_printed else "derived"
    threshold = secrecy_threshold(args.beta_sd, args.beta_se, snr_se)
    rows = []
    for snr_sd_db in _parse_range(args.snr_sd_db):
        scenario = SecrecyScenario(_db_to_linear(snr_sd_db), snr_se, args.beta_sd, args.beta_se)
        rows.append((snr_sd_db, secrecy_rate_awggn(scenario, args.units), secrecy_positive(scenario, condition)))
    threshold_db = 10.0 * math.log10(threshold) if threshold > 0 else -math.inf
    note = "# secrecy threshold: snr_sd = %s (%s dB)\n" % (_fmt(threshold), _fmt(threshold_db))
    return 0, [_csv("snr_sd_db,secrecy_rate,positive", rows)], note


def cmd_sample(args, config):
    if args.law == "gg":
        module, law = _gg, _gg.GGNoise(beta=args.beta, scale=args.scale, mean=args.mean)
    else:
        module, law = _fading, _fading.AlphaMuFading(alpha=args.alpha, mu=args.mu, h_root=args.h_root)
    count = _capped("--count", integer("--count", args.count, 1))
    with warnings.catch_warnings():  # process-wide, so it also quiets the worker threads
        warnings.simplefilter("ignore", RuntimeWarning)
        draws = module.sample(law, config.seed, count, threads=config.threads)
    from ._rows import format_9g  # numpy, loaded by the draws; after them, so a law out of range is named first
    # two reductions, non-finite if any draw is NaN or +-inf; neither allocates, and both run before the first row
    if not (math.isfinite(draws.min()) and math.isfinite(draws.max())):
        raise DomainError("draws of %r lie beyond the float range" % (law,))

    def blocks():
        yield "value\n"
        for start in range(0, count, _BLOCK):
            yield format_9g(draws[start:start + _BLOCK])

    return 0, blocks(), ""


def cmd_verify(args, config):
    from . import verify as _verify  # numpy loads only for the commands that use it

    rows = _verify.run_checks(config, args.quick)
    width = max(len(r[0]) for r in rows)
    failures = sum(not r[3] for r in rows)
    lines = [
        "%-*s  measured=%-14s tolerance=%-12s %s\n"
        % (width, name, _fmt(measured), _fmt(tolerance), "PASS" if passed else "FAIL")
        for name, measured, tolerance, passed in rows
    ]
    return 3 if failures else 0, lines + ["verify: %d checks, %d failed\n" % (len(rows), failures)], ""


def _global_flags():
    parser = _Parser(add_help=False)
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--samples", type=int, default=100_000, help="Monte-Carlo sample count")
    parser.add_argument(
        "--threads", type=int, default=1, help="sampling threads, used up to 8; 1 draws in the calling thread (never affects output)"
    )
    parser.add_argument("--units", choices=("bits", "nats"), default="bits")
    parser.add_argument("--out", default="stdout", help="output path or 'stdout'")
    parser.add_argument(
        "--quad-rtol", type=float, default=DEFAULT_RTOL, help="relative tolerance of the ergodic rule, the only rule it tunes"
    )
    return parser


def build_parser():
    parser = _Parser(prog="uwacap", description=__doc__, parents=[_global_flags()])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gap", help="capacity gap f(beta) per shape value")
    p.add_argument("betas", type=float, nargs="+", help="shape values")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("capacity", help="AWGGN capacity sandwich over an SNR sweep")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--snr-db", required=True, help="'lo:hi:step' in dB")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("ergodic", help="ergodic capacity sandwich under alpha-mu fading")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--snr-db", required=True, help="'lo:hi:step' in dB")
    p.set_defaults(func=cmd_ergodic)

    p = sub.add_parser("secrecy", help="secrecy rate versus destination SNR")
    p.add_argument("--beta-sd", type=float, required=True)
    p.add_argument("--beta-se", type=float, required=True)
    p.add_argument("--snr-se-db", type=float, required=True)
    p.add_argument("--snr-sd-db", required=True, help="'lo:hi:step' in dB")
    p.add_argument("--as-printed", action="store_true",
                   help="evaluate the positivity condition with the e**(1-1/beta) shape factor")
    p.set_defaults(func=cmd_secrecy)

    p = sub.add_parser("sample", help="raw draws from either law")
    p.add_argument("--law", choices=("gg", "alpha-mu"), required=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--mean", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--h-root", type=float, default=1.0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run the empirical invariant suite")
    p.add_argument("--quick", action="store_true", help="only the rows at beta 1, 2 and SNR 1, for smoke testing")
    p.set_defaults(func=cmd_verify)

    return parser


def _parse(argv):
    """Parse argv; an unknown option before the subcommand is named, not its value."""
    try:
        return build_parser().parse_args(argv)
    except DomainError as exc:
        try:
            extras = _global_flags().parse_known_args(argv)[1]
        except DomainError:
            raise exc
        if extras and extras[0].startswith("-"):
            raise DomainError("unrecognized option: %s" % extras[0].split("=")[0])
        raise


def main(argv=None):
    try:
        try:
            args = _parse(argv)
        except _Help as exc:
            code, chunks, note, out = 0, exc.args, "", "stdout"
        else:
            config = SimConfig(
                seed=args.seed,
                samples=_capped("--samples", integer("--samples", args.samples, 1)),
                quad_rtol=args.quad_rtol,
                threads=args.threads,
            )
            code, chunks, note = args.func(args, config)
            out = args.out
        _emit(chunks, out)  # a failed write makes its usage error the only note
    except DomainError as exc:
        code, note = 1, "usage error: %s\n" % exc
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        code, note = 1, "usage error: %s needs numpy, which is not installed\n" % args.command
    except QuadratureError as exc:
        code, note = 2, "quadrature failure: %s (estimate=%r, error=%r)\n" % (exc, exc.estimate, exc.error_indicator)
    if note and sys.stderr is not None:  # a closed or full stderr gets nothing and keeps the code
        try:
            sys.stderr.write(note)
        except OSError:
            _to_null(sys.stderr)
    return code


def run():
    # numpy's bundled OpenBLAS starts a worker per CPU that spin-waits after import; the CLI's small products need none
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    run()
