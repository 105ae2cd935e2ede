"""Command-line front end: channel files in; bound values, verification
verdicts and simulation tables out.

Every ``--out`` file starts with a one-line manifest comment recording the
command, the channel file hash, the full configuration and the artifact
version.  The manifest deliberately excludes the output path: re-running a
manifest reproduces the file byte for byte.

Exit codes: 0 success / all checks passed, 1 verification failure or a
flagged search, 2 usage or parse error, 3 budget exhaustion.  The node
budget of the heavier enumerations can be overridden through the
``FBOUND_BUDGET`` environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import __version__
from .channel_model import (
    MUTATIONS,
    BudgetExceededError,
    FboundError,
    SchemaError,
    check_seed,
    forward_joint,
    load_channel,
    repetition_encoder,
    rotating_encoder,
)
# read through their modules' attributes, so that each module executes only
# when a command calls it (see the package docstring)
from . import bound_engine as be
from . import drift_verify as dv
from . import vlc_sim as vs

__all__ = [
    "main",
    "build_parser",
    "read_manifest",
    "rerun_from_manifest",
    "BUDGET_ENV",
    "VERIFY_SUITES",
]

BUDGET_ENV = "FBOUND_BUDGET"
VERIFY_SUITES = (
    "drift", "lemma1", "lemma4", "fano", "maximal", "lemma7",
    "proposition", "lemma5", "all",
)
BOUND_COLUMNS = ("kind", "horizon", "rate", "value", "flags")
VERIFY_COLUMNS = ("check", "instance", "cases", "worst", "passed")


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def _sha256(path: str) -> str:
    import hashlib  # here, not at module level: only a manifest loads OpenSSL

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _manifest(command: str, args, config_keys: tuple[str, ...]) -> dict:
    config = {}
    for key in config_keys:
        val = getattr(args, key)
        if val is None:
            continue
        config[key] = list(val) if isinstance(val, tuple) else val
    man = {"version": __version__, "command": command, "config": config}
    if getattr(args, "channel", None):
        man["channel"] = {"path": args.channel, "sha256": _sha256(args.channel)}
    if getattr(args, "scheme", None):
        man["scheme"] = {"path": args.scheme, "sha256": _sha256(args.scheme)}
    return man


def _manifest_line(man: dict) -> str:
    return "# manifest: " + json.dumps(man, sort_keys=True, separators=(",", ":"))


def read_manifest(path: str) -> dict:
    """Parse the manifest comment from the head of an output file."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    if not first.startswith("# manifest: "):
        raise SchemaError(f"{path} has no manifest header")
    return json.loads(first[len("# manifest: "):])


def rerun_from_manifest(man: dict, out: str | None = None) -> int:
    """Re-execute a recorded run; the referenced input files must still hash
    to the recorded values."""
    for part in ("channel", "scheme"):
        entry = man.get(part)
        if entry and _sha256(entry["path"]) != entry["sha256"]:
            raise SchemaError(f"{part} file {entry['path']} no longer matches its manifest hash")
    argv = [man["command"]]
    if "channel" in man:
        argv += ["--channel", man["channel"]["path"]]
    if "scheme" in man:
        argv += ["--scheme", man["scheme"]["path"]]
    for key, val in sorted(man["config"].items()):
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            if val:
                argv.append(flag)
        elif isinstance(val, list):
            argv += [flag, ",".join(str(v) for v in val)]
        else:
            argv += [flag, str(val)]
    if out is not None:
        argv += ["--out", str(out)]
    return main(argv)


def _write_csv(path: str, man: dict, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_manifest_line(man) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])


def _budget_override() -> int | None:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return None
    try:
        val = int(float(raw))
    except (ValueError, OverflowError):
        raise SchemaError(f"{BUDGET_ENV}={raw!r} is not a finite number") from None
    if val < 1:
        raise SchemaError(f"{BUDGET_ENV} must be positive")
    return val


def _budget_kw() -> dict:
    """``budget=`` the ``FBOUND_BUDGET`` override, or no keyword without one."""
    budget = _budget_override()
    return {} if budget is None else {"budget": budget}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

_SEARCH_KEYS = (
    "horizon", "grid", "stopping", "fixed_t", "restarts", "sweeps",
    "seed", "messages",
)


def _search_config(args) -> be.SearchConfig:
    budget = _budget_override()
    kw = dict(
        grid_denominator=args.grid,
        sweeps=args.sweeps,
        restarts=args.restarts,
        seed=args.seed,
        stopping=args.stopping,
        fixed_t=args.fixed_t,
        messages=tuple(args.messages),
    )
    if budget is not None:
        kw["budget"] = budget
        kw["rule_cap"] = budget
        kw["encoder_cap"] = budget
    return be.SearchConfig(**kw)


def _print_bound(res, json_out: bool) -> None:
    if json_out:
        print(res.to_json())
        return
    print(f"kind {res.kind}")
    print(f"horizon {res.horizon}")
    if res.rate is not None:
        print(f"rate {res.rate!r}")
    print(f"value {res.value!r}")
    print("flags " + (",".join(res.flags) if res.flags else "none"))
    for key in sorted(res.diagnostics):
        print(f"diag {key} {res.diagnostics[key]}")


def _bound_rows(res) -> list[dict]:
    return [{
        "kind": res.kind,
        "horizon": res.horizon,
        "rate": "" if res.rate is None else res.rate,
        "value": res.value,
        "flags": ";".join(res.flags),
    }]


def cmd_bound(args) -> int:
    ch = load_channel(args.channel)
    if args.command == "bound-capacity":
        res, keys = be.capacity_bound(ch, args.horizon, _search_config(args)), _SEARCH_KEYS
    else:
        res = be.exponent_bound(ch, args.rate, args.horizon, _search_config(args))
        keys = _SEARCH_KEYS + ("rate",)
    _print_bound(res, args.json)
    if args.out:
        _write_csv(args.out, _manifest(args.command, args, keys), BOUND_COLUMNS, _bound_rows(res))
    return 1 if res.flags else 0


def cmd_burnashev(args) -> int:
    ch = load_channel(args.channel)
    res = be.burnashev(ch, args.rate)
    print(res.line())
    if args.out:
        rows = [{"C": res.capacity, "C1": res.max_kl, "R": res.rate,
                 "E": res.exponent}]
        _write_csv(args.out, _manifest("burnashev", args, ("rate",)),
                   ("C", "C1", "R", "E"), rows)
    return 0


def _verify_law(args, ch):
    (m,) = args.messages
    horizon = args.horizon
    if horizon < 1:
        raise SchemaError(f"the checks that read a law need --horizon >= 1, got {horizon}")
    if m <= ch.spec.x_size:
        pol = repetition_encoder(m, ch.spec.x_size, horizon, ch.spec.y_size)
    else:
        pol = rotating_encoder(m, ch.spec.x_size, horizon, ch.spec.y_size)
    return forward_joint(ch, pol, horizon, **_budget_kw())


def _pinned_submartingale(law, eps, mutate):
    if mutate is None:
        return dv.verify_submartingale_L(law, eps)
    # a corrupted divergence can re-certify at a smaller lambda, so hold the
    # mutated run to the multiplier the clean run certified
    clean = dv.verify_submartingale_L(law, eps)
    lam = clean.constants.get("lambda_best", math.nan)
    grid = None if math.isnan(lam) else (lam,)
    return dv.verify_submartingale_L(law, eps, lam_grid=grid, mutate=mutate)


def cmd_verify(args) -> int:
    check_seed(args.seed, "--seed")
    if args.trials < 1:
        raise SchemaError("--trials must be >= 1")
    if len(args.messages) != 1:
        given = ",".join(map(str, args.messages))
        raise SchemaError(f"verify checks one message count, got --messages {given}")
    ch = load_channel(args.channel)
    built = []  # the law, or the error building it raised, once a check asks

    def law():
        if not built:
            try:
                built.append(_verify_law(args, ch))
            except FboundError as e:
                built.append(e)
        if isinstance(built[0], FboundError):
            raise built[0]
        return built[0]

    eps, trials, seed, mutate = args.epsilon, args.trials, args.seed, args.mutate
    suites = {
        "drift": (lambda: dv.verify_linear_drift(law()),
                  lambda: dv.verify_log_drift(law(), eps, mutate=mutate)),
        "lemma1": (lambda: _pinned_submartingale(law(), eps, mutate),),
        "lemma4": (lambda: dv.verify_lemma4_budget(law(), eps),),
        "fano": (lambda: dv.verify_fano(law()),),
        "lemma5": (lambda: dv.verify_lemma5_kl_transfer(law(), eps, mutate=mutate),),
        "lemma7": (lambda: dv.verify_lemma7(trials=trials, seed=seed),),
        "proposition": (lambda: dv.verify_entropy_proposition(trials=trials, seed=seed),),
        "maximal": (lambda: dv.verify_maximal_inequality(law(), trials=trials, seed=seed),),
    }
    order = [s for s in VERIFY_SUITES if s != "all"]
    chosen = order if args.suite == "all" else [args.suite]
    verdicts = []
    refused = []  # (suite, reason) of each check --suite all could not apply
    for name in chosen:
        for check in suites[name]:
            try:
                verdicts.append(check())
            except BudgetExceededError:
                raise
            except FboundError as e:
                if args.suite != "all":
                    raise
                refused.append((name, e))
    for v in verdicts:
        print(v.to_text())
    passed = sum(1 for v in verdicts if v.passed)
    if refused:
        # the verdicts stand, but the suite is not whole: no CSV, exit 2
        print(f"verify: {passed}/{len(verdicts)} checks passed, {len(refused)} refused")
        for name, e in refused:
            print(f"error: {name} check refused: {e}", file=sys.stderr)
        return 2
    print(f"verify: {passed}/{len(verdicts)} checks passed")
    if args.out:
        rows = [{
            "check": v.check, "instance": v.instance, "cases": v.count,
            "worst": v.worst, "passed": v.passed,
        } for v in verdicts]
        _write_csv(args.out,
                   _manifest("verify", args,
                             ("suite", "messages", "horizon", "epsilon",
                              "trials", "seed", "mutate")),
                   VERIFY_COLUMNS, rows)
    return 0 if passed == len(verdicts) else 1


def _schemes_from_args(args, ch, parser):
    if args.scheme:
        return [vs.load_scheme(args.scheme)]
    if args.m is None or args.n1 is None or args.n2 is None or args.cap is None:
        parser.error("simulate needs either --scheme or all of --m/--n1/--n2/--cap")
    build = (vs.build_repetition_confirm if args.variant == "repetition_confirm"
             else vs.build_yamamoto_itoh)
    schemes = []
    for m in args.m:
        if args.variant == "repetition_confirm":
            schemes.append(build(ch, m, args.n1, args.n2, args.cap,
                                 threshold=args.threshold))
        else:
            schemes.append(build(ch, m, args.n1, args.n2, args.cap,
                                 seed=args.scheme_seed, threshold=args.threshold))
    return schemes


def cmd_simulate(args, parser) -> int:
    check_seed(args.seed, "--seed")
    check_seed(args.scheme_seed, "--scheme-seed")
    ch = load_channel(args.channel)
    schemes = _schemes_from_args(args, ch, parser)
    kw = _budget_kw()
    runs = []
    for scheme in schemes:
        stats = vs.simulate(scheme, ch, args.trials, seed=args.seed)
        runs.append((scheme, stats))
        # the walk runs before the scheme line, whose interval text may
        # load scipy's compiled betaincinv (as the CSV rows do), so that
        # scipy never loads on top of its arrays; the line still prints
        # before a refused walk's error
        try:
            ex = vs.exact_stats(scheme, ch, **kw) if args.exact else None
        finally:
            pe_lo, pe_hi = stats.pe_interval_text()
            print(f"scheme {scheme.name or scheme.variant}: "
                  f"M={scheme.m} trials={stats.trials} "
                  f"Pe={stats.pe:.6g} [{pe_lo},{pe_hi}] "
                  f"ET={stats.et:.6g} R={stats.rate:.6g} E={stats.exponent:.6g}")
        if ex is not None:
            print(f"  exact: Pe={ex.pe!r} ET={ex.et!r} "
                  f"R={ex.rate:.6g} E={ex.exponent:.6g}")
    if args.out:
        man = _manifest("simulate", args,
                        ("trials", "seed", "variant", "m", "n1", "n2", "cap",
                         "scheme_seed", "threshold", "exact"))
        _write_csv(args.out, man, vs.CSV_COLUMNS, [vs.csv_row(*run) for run in runs])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbound",
        description="Feedback-channel bounds, drift verification and "
                    "variable-length coding simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chan = argparse.ArgumentParser(add_help=False)
    chan.add_argument("--channel", required=True, help="channel JSON file")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write a CSV table with a manifest header")

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--horizon", type=int, default=2)
    search.add_argument("--grid", type=int, default=16,
                        help="simplex grid denominator for policy rows")
    search.add_argument("--stopping", choices=("fixed", "all"), default="fixed")
    search.add_argument("--fixed-t", type=int, default=None,
                        help="pin the stopping time (capacity search only)")
    search.add_argument("--restarts", type=int, default=8)
    search.add_argument("--sweeps", type=int, default=50)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--messages", type=_int_list, default=(2, 4),
                        help="message counts searched by the exponent bound")
    search.add_argument("--json", action="store_true",
                        help="print the full result as JSON")

    p = sub.add_parser("bound-capacity", parents=[chan, search, out],
                       help="search the stopped-policy capacity bound")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("bound-exponent", parents=[chan, search, out],
                       help="search the two-phase exponent bound")
    p.add_argument("--rate", type=float, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("burnashev", parents=[chan, out],
                       help="classical exponent line of a memoryless channel")
    p.add_argument("--rate", type=float, required=True)
    p.set_defaults(func=cmd_burnashev)

    p = sub.add_parser("verify", parents=[chan, out],
                       help="run a drift/martingale verification suite")
    p.add_argument("--suite", choices=VERIFY_SUITES, default="all")
    p.add_argument("--messages", type=_int_list, default=(2,))
    p.add_argument("--horizon", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--trials", type=int, default=20000,
                   help="instances for the randomized checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mutate", choices=MUTATIONS, default=None,
                   help="corrupt the checked quantity; the run must then fail")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", parents=[chan, out],
                       help="Monte Carlo run of a send-and-confirm scheme")
    p.add_argument("--scheme", help="scheme JSON file")
    p.add_argument("--variant", choices=("yamamoto_itoh", "repetition_confirm"),
                   default="yamamoto_itoh")
    p.add_argument("--m", type=_int_list, default=None,
                   help="message counts; several values emit one CSV row each")
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--n2", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--scheme-seed", type=int, default=0,
                   help="codebook seed for the built scheme")
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true",
                   help="also print the exact enumeration values")
    p.set_defaults(func=None)  # simulate needs the parser for usage errors
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args, parser)
        return args.func(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except FboundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
