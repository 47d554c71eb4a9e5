"""The three workloads: inputs drawn from the seed, one pass, and its checks.

A pass is the workload's fixed input set, run as a closed loop with one
client: each operation starts after the previous one ended. ``run_pass``
times the operations, then checks their outputs outside the timed region.
It returns the operations and, per phase, (output points, seconds).

This module imports neither numpy nor uwacap at load time, so the set-up
probe in ``child.py`` times those imports itself.
"""

from __future__ import annotations

import array
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time

import checks
from checks import Op

HERE = os.path.dirname(os.path.abspath(__file__))
clock = time.perf_counter


def nproc():
    return len(os.sched_getaffinity(0))


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 3)


def _strata(rng, n, lo, hi):
    """n values in [lo, hi], one uniform draw per equal-width stratum, shuffled."""
    cells = rng.permutation(n) + rng.uniform(0.0, 1.0, n)
    return [round(float(lo + (hi - lo) * c / n), 3) for c in cells]


def _cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_cli(root, argv, traced):
    """One CLI invocation in a fresh interpreter; returns (latency, result, spans)."""
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli", *argv]
    else:
        cmd = [sys.executable, "-m", "uwacap.cli", *argv]
    start = clock()
    proc = subprocess.run(cmd, cwd=root, env=_cli_env(root), capture_output=True, text=True)
    latency = clock() - start
    spans = None
    if traced:
        lines = proc.stderr.splitlines()
        tagged = [ln for ln in lines if ln.startswith("#perfbench-spans ")]
        proc.stderr = "\n".join(ln for ln in lines if not ln.startswith("#perfbench-spans "))
        spans = tagged[-1][len("#perfbench-spans "):] if tagged else None
    return latency, proc, spans


def _csv(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None
    return [ln.split(",") for ln in lines[1:]]


class Pass:
    """Operations of one pass, per-phase work, and merged spans when traced."""

    def __init__(self, timed_as_one=False):
        self.ops = []
        self.phases = {}
        self.spans = []
        self.attrs = {}
        # True when the pass as a whole is the latency-timed operation
        self.timed_as_one = timed_as_one

    def add_phase(self, name, points, seconds):
        p, s = self.phases.get(name, (0, 0.0))
        self.phases[name] = (p + points, s + seconds)

    @property
    def wall(self):
        return sum(s for _, s in self.phases.values())

    def compact(self):
        """Keep latencies, row and failure counts; drop the operations.

        A run holds many passes, so keeping every operation would make the
        benchmark's own memory grow with the number of passes.
        """
        self.latencies = array.array("d", [self.wall] if self.timed_as_one else (op.latency for op in self.ops))
        self.attempted = len(self.ops)
        self.rows = sum(op.rows for op in self.ops)
        self.failures = [(op.kind, op.errors) for op in self.ops if op.failed]
        self.rayleigh_err = max(op.rayleigh_err for op in self.ops)
        self.ops = []
        return self


# ------------------------------------------------------------ CLI workloads


class CliFigures:
    """The paper's figure sweeps, one ``python -m uwacap.cli`` per command."""

    name = "cli_figures"
    in_process = False
    CAP_STEP, CAP_SPAN = 0.5, 40.0
    ERG_STEP, ERG_SPAN = 2.0, 60.0
    SEC_STEP, SEC_SPAN = 0.05, 20.0
    SAMPLE_COUNT = 500_000

    def __init__(self, root, seed):
        self.root = root
        rng = random.Random(seed)
        self.commands = []
        betas = [_u(rng, 0.3, 4.0) for _ in range(8)]
        self._add("closed_form", ["gap", *map(repr, betas)], self._check_gap, betas=betas)
        for _ in range(4):
            beta, lo = _u(rng, 0.3, 4.0), _u(rng, -10.0, 0.0)
            self._add("closed_form", ["capacity", "--beta", repr(beta), "--snr-db=%s" % self._range(lo, self.CAP_SPAN, self.CAP_STEP)],
                      self._check_capacity, beta=beta, lo=lo)
        laws = [
            (2.0, 1.0),                                         # Rayleigh
            (2.0, _u(rng, 0.5, 4.0)),                           # Nakagami-m
            (_u(rng, 0.5, 4.0), 1.0),                           # Weibull-k
            (_u(rng, 0.5, 0.55), _u(rng, 0.5, 0.55)),           # hard alpha-mu corner
        ]
        for alpha, mu in laws:
            beta, lo = _u(rng, 0.3, 4.0), _u(rng, -5.0, 0.0)
            self._add("ergodic", ["ergodic", "--alpha", repr(alpha), "--mu", repr(mu), "--beta", repr(beta),
                                  "--snr-db=%s" % self._range(lo, self.ERG_SPAN, self.ERG_STEP)],
                      self._check_ergodic, alpha=alpha, mu=mu, beta=beta, lo=lo)
        for _ in range(4):
            beta_sd, beta_se, se_db = _u(rng, 0.3, 4.0), _u(rng, 0.3, 4.0), _u(rng, -5.0, 10.0)
            thr = checks.secrecy_threshold(beta_sd, beta_se, 10.0 ** (se_db / 10.0))
            centre = 10.0 * math.log10(thr) if thr > 0 else se_db
            lo = round(centre - self.SEC_SPAN / 2 + rng.uniform(-2.0, 2.0), 3)
            self._add("closed_form", ["secrecy", "--beta-sd", repr(beta_sd), "--beta-se", repr(beta_se),
                                      "--snr-se-db=%r" % se_db,
                                      "--snr-sd-db=%s" % self._range(lo, self.SEC_SPAN, self.SEC_STEP)],
                      self._check_secrecy, beta_sd=beta_sd, beta_se=beta_se, se_db=se_db, lo=lo)
        seed_gg, seed_am = rng.randrange(2**31), rng.randrange(2**31)
        beta, scale, mean = _u(rng, 0.3, 4.0), _u(rng, 0.5, 2.0), _u(rng, -1.0, 1.0)
        self._add("draws", ["--seed", str(seed_gg), "sample", "--law", "gg", "--beta", repr(beta),
                            "--scale", repr(scale), "--mean=%r" % mean, "--count", str(self.SAMPLE_COUNT)],
                  self._check_sample, moments=checks.gg_moments(beta, scale, mean))
        alpha, mu, h_root = _u(rng, 0.5, 4.0), _u(rng, 0.5, 4.0), _u(rng, 0.5, 2.0)
        self._add("draws", ["--seed", str(seed_am), "sample", "--law", "alpha-mu", "--alpha", repr(alpha),
                            "--mu", repr(mu), "--h-root", repr(h_root), "--count", str(self.SAMPLE_COUNT)],
                  self._check_sample, moments=checks.alpha_mu_moments(alpha, mu, h_root))

    @staticmethod
    def _range(lo, span, step):
        return "%.3f:%.3f:%r" % (lo, lo + span, step)

    def _add(self, phase, argv, check, **params):
        self.commands.append((phase, argv, check, params))

    def prepare(self):
        import uwacap.cli  # noqa: F401  (the set-up cost a CLI user pays)

    def run_pass(self, traced=False):
        result = Pass()
        outputs = []
        for phase, argv, check, params in self.commands:
            latency, proc, spans = _run_cli(self.root, argv, traced)
            op = Op(phase, latency)
            result.ops.append(op)
            outputs.append((op, proc, spans, check, params))
        for index, (op, proc, spans, check, params) in enumerate(outputs):
            if op.check(proc.returncode == 0, "%s exited %d: %s" % (op.kind, proc.returncode, proc.stderr.strip()[-300:])):
                check(op, proc, **params)
            result.add_phase(op.kind, op.rows, op.latency)
            if traced:
                _merge_child_spans(result, spans, index)
        return result

    # per-command checks ------------------------------------------------

    def _grid(self, op, rows, lo, span, step):
        want = int(round(span / step)) + 1
        if not op.check(rows is not None and len(rows) == want, "%d rows, want %d" % (len(rows or ()), want)):
            return []
        out = []
        for k, row in enumerate(rows):
            x = float(row[0])
            op.close(x, lo + k * step, "grid point", rtol=checks.PRINT_RTOL, atol=1e-9)
            out.append((x, [float(v) for v in row[1:]]))
        return out

    def _check_gap(self, op, proc, betas):
        rows = _csv(proc.stdout, "beta,gap_bits,gap_nats")
        if not op.check(rows is not None and len(rows) == len(betas), "gap rows"):
            return
        op.rows = len(rows)
        for beta, row in zip(sorted(betas), rows):
            b, bits, nats = map(float, row)
            op.close(b, beta, "beta", rtol=checks.PRINT_RTOL)
            op.close(bits, checks.gap_bits(beta), "gap_bits(%r)" % beta, rtol=checks.PRINT_RTOL)
            op.close(nats, checks.gap_nats(beta), "gap_nats(%r)" % beta, rtol=checks.PRINT_RTOL)

    def _check_capacity(self, op, proc, beta, lo):
        grid = self._grid(op, _csv(proc.stdout, "snr_db,lower,upper"), lo, self.CAP_SPAN, self.CAP_STEP)
        op.rows = len(grid)
        for snr_db, (lower, upper) in grid:
            op.close(lower, checks.awgn_bits(10.0 ** (snr_db / 10.0)), "lower", rtol=checks.PRINT_RTOL)
            checks.check_bounds(op, lower, upper, beta, "capacity", rtol=checks.PRINT_RTOL)

    def _check_ergodic(self, op, proc, alpha, mu, beta, lo):
        grid = self._grid(op, _csv(proc.stdout, "snr_db,lower,upper"), lo, self.ERG_SPAN, self.ERG_STEP)
        op.rows = len(grid)
        previous = 0.0
        for snr_db, (lower, upper) in grid:
            snr = 10.0 ** (snr_db / 10.0)
            checks.check_bounds(op, lower, upper, beta, "ergodic", rtol=checks.PRINT_RTOL)
            tol = checks.QUAD_RTOL + checks.PRINT_RTOL
            op.check(0.0 <= lower <= checks.awgn_bits(snr) * (1.0 + tol), "Jensen bound at %r dB" % snr_db)
            op.check(lower >= previous * (1.0 - tol), "ergodic decreases at %r dB" % snr_db)
            previous = lower
            if (alpha, mu) == (2.0, 1.0):
                op.rayleigh_err = max(op.rayleigh_err, checks.check_rayleigh(
                    op, lower, snr, checks.RAYLEIGH_RTOL + checks.PRINT_RTOL))

    def _check_secrecy(self, op, proc, beta_sd, beta_se, se_db, lo):
        grid = self._grid(op, _csv(proc.stdout, "snr_sd_db,secrecy_rate,positive"), lo, self.SEC_SPAN, self.SEC_STEP)
        op.rows = len(grid)
        snr_se = 10.0 ** (se_db / 10.0)
        printed = [ln for ln in proc.stderr.splitlines() if ln.startswith("# secrecy threshold: snr_sd = ")]
        if not op.check(len(printed) == 1, "no threshold line on stderr"):
            return
        threshold = float(printed[0].split("=")[1].split()[0])
        op.close(threshold, checks.secrecy_threshold(beta_sd, beta_se, snr_se), "threshold", rtol=checks.PRINT_RTOL)
        for snr_db, (rate, positive) in grid:
            snr_sd = 10.0 ** (snr_db / 10.0)
            op.close(rate, checks.secrecy_bits(snr_sd, snr_se, beta_sd, beta_se), "rate at %r dB" % snr_db,
                     rtol=checks.PRINT_RTOL)
            checks.check_secrecy_sign(op, snr_sd, threshold, rate, positive == 1.0, "secrecy at %r dB" % snr_db)

    def _check_sample(self, op, proc, moments):
        import numpy as np

        lines = proc.stdout.splitlines()
        if not op.check(bool(lines) and lines[0] == "value", "sample header"):
            return
        op.rows = len(lines) - 1
        checks.check_draws(op, np.array(lines[1:], dtype=float), self.SAMPLE_COUNT, moments, "sample")


class VerifyFull:
    """The full ``uwacap --seed <s> verify`` suite as one fresh interpreter."""

    name = "verify_full"
    in_process = False
    CHECKS = 72

    def __init__(self, root, seed):
        self.root = root
        self.argv = ["--seed", str(random.Random(seed).randrange(2**31)), "verify"]

    def prepare(self):
        import uwacap.cli  # noqa: F401

    def run_pass(self, traced=False):
        result = Pass()
        latency, proc, spans = _run_cli(self.root, self.argv, traced)
        op = Op("verify", latency)
        result.ops.append(op)
        checks.check_verify_output(op, proc.stdout, proc.returncode, self.CHECKS)
        result.add_phase("verify", op.rows, latency)
        if traced:
            _merge_child_spans(result, spans, 0)
        return result


def _merge_child_spans(result, payload, op_id):
    """Append a traced child's spans, renumbered after those already held."""
    if payload is None:
        result.ops[op_id].check(False, "traced child wrote no spans")
        return
    data = json.loads(payload)
    offset = len(result.spans)
    for sid, name, start, end, parent, _ in data["spans"]:
        result.spans.append((offset + sid, name, start, end, offset + parent if parent >= 0 else -1, op_id))
    for sid, attrs in data["attrs"].items():
        result.attrs[offset + int(sid)] = attrs


# ------------------------------------------------------------ library bulk


class LibraryBulk:
    """One warm process calling the public functions on large seeded inputs."""

    name = "library_bulk"
    in_process = True
    LAWS, POINTS, SCENARIOS = 16, 2500, 1500
    FADING_LAWS, ERG_DB = 16, tuple(0.5 * k for k in range(121))
    DRAWS, SAMPLER_BETAS, SAMPLER_ALPHA_MU = 600_000, (0.5, 1.0, 2.0), ((0.5, 0.5), (2.0, 1.0), (4.0, 4.0))

    def __init__(self, root, seed):
        self.root, self.seed = root, seed

    def prepare(self):
        import uwacap.capacity
        import uwacap.fading
        import uwacap.gg_noise
        import uwacap.secrecy
        import numpy as np

        self.mods = (uwacap.capacity, uwacap.secrecy, uwacap.gg_noise, uwacap.fading)
        rng = np.random.default_rng(self.seed)
        self.betas = [float(b) for b in np.round(rng.uniform(0.3, 4.0, self.LAWS), 3)]
        self.points = list(zip(rng.integers(0, self.LAWS, self.POINTS).tolist(),
                               (10.0 ** (rng.uniform(-10.0, 40.0, self.POINTS) / 10.0)).tolist()))
        b = np.round(rng.uniform(0.3, 4.0, (self.SCENARIOS, 2)), 3)
        se = 10.0 ** (rng.uniform(-10.0, 20.0, self.SCENARIOS) / 10.0)
        self.scenarios = []
        for (beta_sd, beta_se), snr_se, offset in zip(b.tolist(), se.tolist(), rng.uniform(-10, 10, self.SCENARIOS).tolist()):
            thr = checks.secrecy_threshold(beta_sd, beta_se, snr_se)
            snr_sd = thr * 10.0 ** (offset / 10.0) if thr > 0 else snr_se * 10.0 ** (offset / 10.0)
            self.scenarios.append((snr_sd, snr_se, beta_sd, beta_se))
        # Fading shapes are stratified (one draw per equal-width stratum,
        # shuffled) so that the quadrature work per pass, which depends on
        # the shapes, varies little from seed to seed.
        alphas = _strata(rng, self.FADING_LAWS - 1, 0.5, 4.0)
        mus = _strata(rng, self.FADING_LAWS - 1, 0.5, 4.0)
        shift = float(rng.uniform(-1.0, 0.0))
        self.fading_laws = [(2.0, 1.0)] + list(zip(alphas, mus))
        self.ergodic_snrs = [10.0 ** ((d + shift) / 10.0) for d in self.ERG_DB]
        self.ergodic_betas = _strata(rng, self.FADING_LAWS, 0.3, 4.0)
        # The sampler laws are fixed and only their seeds are drawn: a draw's
        # cost depends on the shape, and the slowest calls set the tail.
        laws = []
        for beta, (alpha, mu) in zip(self.SAMPLER_BETAS, self.SAMPLER_ALPHA_MU):
            law = uwacap.gg_noise.with_variance(beta, 1.0)
            laws.append(("gg_noise", law, checks.gg_moments(law.beta, law.scale, law.mean), int(rng.integers(2**31))))
            law = uwacap.fading.AlphaMuFading(alpha, mu)
            laws.append(("fading", law, checks.alpha_mu_moments(alpha, mu, 1.0), int(rng.integers(2**31))))
        # the same law and seed at each thread count, so the outputs must match
        self.samplers = [law + (threads,) for threads in sorted({1, nproc()}) for law in laws]
        # Operations of all kinds run interleaved in one seeded order, so
        # that every kind's latencies sample the same stretch of the pass.
        tasks = ([("point", i) for i in range(self.POINTS)]
                 + [("scenario", i) for i in range(self.SCENARIOS)]
                 + [("ergodic", (l, s)) for l in range(self.FADING_LAWS) for s in range(len(self.ERG_DB))]
                 + [("sample", i) for i in range(len(self.samplers))])
        self.tasks = [tasks[k] for k in rng.permutation(len(tasks))]

    def run_pass(self, traced=False):
        cap, sec, gg, fad = self.mods
        # The bulk job is the latency-timed operation. A single call's
        # latency (tens of microseconds, interpreter-bound) swings with the
        # host's speed state far more than the job does; per-call times are
        # the per-layer *.us_per_call metrics.
        result = Pass(timed_as_one=True)
        ops = result.ops
        spent = dict.fromkeys(("closed_form", "ergodic", "draws"), 0.0)

        def call(phase, kind, rows, fn, *args):
            if traced:
                self.recorder.op = len(ops)
            start = clock()
            try:
                out = fn(*args)
            except Exception as exc:  # a failed call is counted, the loop goes on
                out = exc
            op = Op(kind, clock() - start, rows)
            ops.append(op)
            spent[phase] += op.latency
            if isinstance(out, Exception):
                op.check(False, "%s raised %r" % (kind, out))
            return op, out

        laws = [call("closed_form", "with_variance", 0, gg.with_variance, beta, 1.0)[1] for beta in self.betas]
        fading = [call("ergodic", "unit_power", 0, fad.unit_power, alpha, mu) for alpha, mu in self.fading_laws]
        closed, secrecy, ergodic, first_draws = [], [], {}, {}
        for task, i in self.tasks:
            if task == "point":
                law_index, snr = self.points[i]
                law, beta = laws[law_index], self.betas[law_index]
                closed.append((call("closed_form", "gap", 1, cap.gap, beta, "bits"),
                               call("closed_form", "awggn_bounds", 2,
                                    lambda: cap.awggn_bounds(cap.ChannelConfig(snr, law))),
                               beta, snr))
            elif task == "scenario":
                args = self.scenarios[i]
                scenario = [None]

                def rate():
                    scenario[0] = sec.SecrecyScenario(*args)
                    return sec.secrecy_rate_awggn(scenario[0])

                secrecy.append((call("closed_form", "secrecy_rate_awggn", 1, rate),
                                call("closed_form", "secrecy_positive", 1, lambda: sec.secrecy_positive(scenario[0])),
                                call("closed_form", "secrecy_threshold", 1, sec.secrecy_threshold,
                                     args[2], args[3], args[1]),
                                args))
            elif task == "ergodic":
                law_index, snr_index = i
                ergodic[i] = call("ergodic", "ergodic_bounds", 2, cap.ergodic_bounds, self.ergodic_snrs[snr_index],
                                  fading[law_index][1], self.ergodic_betas[law_index])
            else:
                module, law, moments, seed, threads = self.samplers[i]
                kind = "%s.sample.t%d" % (module, threads)
                op, x = call("draws", kind, self.DRAWS, (gg if module == "gg_noise" else fad).sample,
                             law, seed, self.DRAWS, 8, threads)
                if not op.failed:
                    checks.check_draws(op, x, self.DRAWS, moments, kind)
                    # a digest, not the array, so memory does not depend on the task order
                    digest = hashlib.sha256(x.tobytes()).hexdigest()
                    same = first_draws.setdefault((module, law, seed), digest)
                    op.check(same == digest, "%s: output depends on the thread count" % kind)
        result.add_phase("closed_form", len(self.points) + len(self.scenarios), spent["closed_form"])
        result.add_phase("ergodic", len(ergodic), spent["ergodic"])
        result.add_phase("draws", self.DRAWS * len(self.samplers), spent["draws"])

        for (op, value), (op_b, bounds), beta, snr in closed:
            if not op.failed:
                op.close(value, checks.gap_bits(beta), "gap(%r)" % beta)
            if not op_b.failed:
                op_b.close(bounds.lower, checks.awgn_bits(snr), "awggn lower")
                checks.check_bounds(op_b, bounds.lower, bounds.upper, beta, "awggn_bounds")
        for (op_r, rate), (op_p, positive), (op_t, thr), args in secrecy:
            if op_r.failed or op_p.failed or op_t.failed:
                continue
            op_r.close(rate, checks.secrecy_bits(*args), "secrecy rate")
            op_t.close(thr, checks.secrecy_threshold(args[2], args[3], args[1]), "threshold", rtol=1e-12)
            op_p.check(positive == (rate > 0.0) or abs(args[0] - thr) <= checks.THRESHOLD_MARGIN * thr,
                       "positive flag disagrees with the rate")
            checks.check_secrecy_sign(op_r, args[0], thr, rate, positive, "secrecy")
        for law_index, ((op_u, law), (alpha, mu), beta) in enumerate(zip(fading, self.fading_laws, self.ergodic_betas)):
            if not op_u.failed:
                op_u.close(law.h_root, checks.unit_power_h_root(alpha, mu), "h_root", rtol=1e-12)
            previous = 0.0
            for snr_index, snr in enumerate(self.ergodic_snrs):
                op, bounds = ergodic[law_index, snr_index]
                if op.failed:
                    continue
                checks.check_bounds(op, bounds.lower, bounds.upper, beta, "ergodic")
                op.check(0.0 <= bounds.lower <= checks.awgn_bits(snr) * (1.0 + checks.QUAD_RTOL), "Jensen bound")
                op.check(bounds.lower >= previous * (1.0 - checks.QUAD_RTOL), "ergodic decreases with SNR")
                previous = bounds.lower
                if (alpha, mu) == (2.0, 1.0):
                    op.rayleigh_err = checks.check_rayleigh(op, bounds.lower, snr, checks.RAYLEIGH_RTOL)
        return result


WORKLOADS = {w.name: w for w in (CliFigures, VerifyFull, LibraryBulk)}
