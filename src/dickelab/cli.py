"""Config-driven command line interface.

One JSON document declares exactly one command plus its parameters; flags
only choose the config path, output directory and verbosity.  Every run
writes its result artifacts (CSV for grids, JSON for scalar results) plus
manifest.json recording the config echo, package version, wall time, and
sha256 checksums of the artifacts.

No result depends on a seed: every exact-diagonalization block starts from
a fixed vector.  The `seed` config key and the --seed flag are still
accepted, so configs and scripts that set them keep working, and still
validated as integers >= 0 (exit 2 otherwise), but they change nothing.

Each config rule has one owner: model.config_keys checks the allowed and
required keys that _COMMANDS states, and a rule on a value is checked by
the library function that owns it, whose message model.config_rule
reports at the field's path.

Exit codes: 0 success, 2 config error, 3 solver failure (non-convergence,
bad bracket), 4 resource limit.  Failures leave a machine-readable
error.json in the output directory when it is writable.

ed-nscan solves its system sizes one after another in n_list order and
keeps only each finished ed.csv row, not the ground vector behind it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from . import __version__, meanfield
from .cpb import CpbSpec, write_cpb_csv
from .errors import ConfigError, ConvergenceError, ResourceLimitError, SolverError
from .exactdiag import (
    MAX_DIM_DEFAULT,
    converge_cutoff,
    dump_state,
    ed_csv_header,
    ed_csv_row,
    ed_ground,
)
from .meanfield import (
    DEFAULT_N_POINTS,
    critical_coupling,
    minimize,
    no_go_check,
    scan_order_parameter,
    write_scan_csv,
)
from .model import (
    DickeModel,
    config_int,
    config_keys,
    config_number,
    config_numbers,
    config_rule,
    coupling_pair,
    model_from_dict,
    trk_kappa_min,
    trk_report,
)

# Each command's top-level blocks.  model's keys are model_from_dict's; for
# scan, ed and cpb the entry is (allowed keys, required keys).  A block is
# required unless it has keys and none of them is required (ed-ground's
# ed); any other block is "not used by command".
_COMMANDS = {
    "meanfield-scan": {"model": None, "scan": ({"coupling", "values", "tie"},
                                               ("coupling", "values"))},
    "critical": {"model": None, "scan": ({"coupling", "bracket", "tie"}, ("coupling", "bracket"))},
    "no-go": {"model": None, "scan": ({"coupling", "lambda_max", "n_points", "kappa_rule"},
                                      ("coupling", "lambda_max"))},
    "ed-ground": {"model": None, "ed": ({"n_max", "max_dim", "dump_state"}, ())},
    "ed-nscan": {"model": None, "ed": ({"n_list", "max_dim"}, ("n_list",))},
    "cpb-sweet-spot": {"cpb": ({"ec", "ej", "ng", "n_cut"}, ("ec", "ej", "ng"))},
    "trk-check": {"model": None},
}
COMMANDS = tuple(_COMMANDS)
_BLOCKS = tuple(dict.fromkeys(block for blocks in _COMMANDS.values() for block in blocks))
_TOP_KEYS = {"command", "seed", "output", *_BLOCKS}


@dataclass(frozen=True)
class RunConfig:
    command: str
    output: str | None
    echo: dict
    model: DickeModel | None = None
    scan_coupling: tuple[int, int] | None = None
    scan_values: tuple[float, ...] | None = None
    scan_tie: dict | None = None
    bracket: tuple[float, float] | None = None
    lambda_max: float | None = None
    n_points: int = DEFAULT_N_POINTS
    kappa_rule: str = "fixed"
    ed_n_max: int | None = None
    ed_n_list: tuple[int, ...] | None = None
    ed_max_dim: int = MAX_DIM_DEFAULT
    ed_dump_state: bool = False
    cpb_specs: tuple[CpbSpec, ...] = ()


def _pair(value, path, d) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(path, "expected a pair of level indices [j, k]")
    pair = [config_int(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return config_rule(path, coupling_pair, pair, d)


def _parse_tie(doc, path, d, scanned):
    tie = {}
    if not isinstance(doc, Mapping):
        raise ConfigError(path, "expected a mapping of 'j,k' to ratio")
    for key, ratio in doc.items():
        try:
            j, k = (int(part) for part in key.split(","))
        except ValueError as exc:
            raise ConfigError(f"{path}.{key}", "key must look like 'j,k'") from exc
        pair = config_rule(f"{path}.{key}", meanfield.tie_pair, (j, k), scanned, d)
        tie[pair] = config_number(ratio, f"{path}.{key}")
    return tie


# scan key: (its RunConfig field, its JSON type check, the library rule on
# its value); the command's keys are _COMMANDS', and an absent optional key
# keeps the RunConfig default
_SCAN_FIELDS = {
    "values": ("scan_values", lambda v, path: tuple(config_numbers(v, path)),
               meanfield.check_scan_values),
    "bracket": ("bracket", lambda v, path: tuple(config_numbers(v, path)), meanfield.check_bracket),
    "lambda_max": ("lambda_max", config_number, meanfield.check_lambda_max),
    "n_points": ("n_points", config_int, meanfield.check_n_points),
    "kappa_rule": ("kappa_rule", lambda v, path: v, meanfield.check_kappa_rule),
}


def _parse_scan(doc, path, d) -> dict:
    """The RunConfig fields set by a scan block."""
    out: dict = {"scan_coupling": _pair(doc["coupling"], f"{path}.coupling", d)}
    if "tie" in doc:
        out["scan_tie"] = _parse_tie(doc["tie"], f"{path}.tie", d, out["scan_coupling"])
    for key, (field, parse, rule) in _SCAN_FIELDS.items():
        if key in doc:
            out[field] = parse(doc[key], f"{path}.{key}")
            config_rule(f"{path}.{key}", rule, out[field])
    return out


def _parse_cpb(doc, path) -> tuple[CpbSpec, ...]:
    params = {key: (config_numbers if isinstance(doc[key], (list, tuple)) else config_number)(
        doc[key], f"{path}.{key}") for key in ("ec", "ej", "ng")}
    if "n_cut" in doc:
        params["n_cut"] = config_int(doc["n_cut"], f"{path}.n_cut")
    sweeps = sorted(key for key, value in params.items() if isinstance(value, list))
    if len(sweeps) > 1:
        raise ConfigError(f"{path}.{sweeps[1]}", "at most one of ec/ej/ng may be a sweep list")
    if not sweeps:
        return (config_rule(path, CpbSpec, **params),)
    key = sweeps[0]
    if not params[key]:
        raise ConfigError(f"{path}.{key}", "sweep list must not be empty")
    return tuple(config_rule(path, CpbSpec, **{**params, key: value}) for value in params[key])


def parse_config(doc: Mapping) -> RunConfig:
    """Validate a config document; errors carry the offending field path."""
    config_keys(doc, _TOP_KEYS, "$")
    command = doc.get("command")
    if command not in COMMANDS:
        raise ConfigError("$.command", f"expected one of {', '.join(COMMANDS)}")
    blocks = _COMMANDS[command]
    for block in _BLOCKS:
        if block in doc and block not in blocks:
            raise ConfigError(f"$.{block}", f"not used by command {command!r}")
    config_keys(doc, _TOP_KEYS, "$",
                required=[block for block, keys in blocks.items() if keys is None or keys[1]])
    for block, keys in blocks.items():
        if keys is not None and block in doc:
            config_keys(doc[block], keys[0], f"$.{block}", required=keys[1])
    if "seed" in doc:
        config_int(doc["seed"], "$.seed", minimum=0)     # validated, then ignored
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("$.output", "expected a string path")

    kwargs: dict = {}
    if "model" in blocks:
        kwargs["model"] = model_from_dict(doc["model"], path="$.model")
    if "scan" in blocks:
        kwargs.update(_parse_scan(doc["scan"], "$.scan", kwargs["model"].atom.d))
    if "ed" in blocks:
        ed = doc.get("ed", {})
        if "n_max" in ed:
            kwargs["ed_n_max"] = config_int(ed["n_max"], "$.ed.n_max", minimum=0)
        if "max_dim" in ed:
            # the key can only lower the guard
            kwargs["ed_max_dim"] = config_int(ed["max_dim"], "$.ed.max_dim", minimum=1,
                                              maximum=MAX_DIM_DEFAULT)
        kwargs["ed_dump_state"] = ed.get("dump_state", False)
        if not isinstance(kwargs["ed_dump_state"], bool):
            raise ConfigError("$.ed.dump_state", "expected a boolean")
        if "n_list" in ed:
            n_list = ed["n_list"]
            if not isinstance(n_list, (list, tuple)) or not n_list:
                raise ConfigError("$.ed.n_list", "expected a nonempty list of positive integers")
            kwargs["ed_n_list"] = tuple(config_int(n, f"$.ed.n_list[{i}]", minimum=1)
                                        for i, n in enumerate(n_list))
    if "cpb" in blocks:
        kwargs["cpb_specs"] = _parse_cpb(doc["cpb"], "$.cpb")
    if command == "trk-check" or kwargs.get("kappa_rule") == "trk-ground":
        atom = kwargs["model"].atom
        config_rule("$.model.atom.energies", trk_kappa_min, atom.coupling(0, 1), atom.energies[1])

    return RunConfig(command=command, output=output,
                     echo=json.loads(json.dumps(doc)), **kwargs)


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------

def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_ed_csv(path: Path, d: int, rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ed_csv_header(d))
        writer.writerows(rows)


def run(cfg: RunConfig, outdir: Path, verbose: bool = False) -> dict[str, Path]:
    """Execute one parsed config; returns {artifact name: path} incl. manifest."""
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    written: dict[str, Path] = {}

    def emit(name: str) -> Path:
        written[name] = outdir / name
        return written[name]

    if cfg.command == "meanfield-scan":
        sols = scan_order_parameter(cfg.model, cfg.scan_coupling, cfg.scan_values,
                                    tie=cfg.scan_tie)
        write_scan_csv(emit("scan.csv"), cfg.scan_values, sols)
    elif cfg.command == "critical":
        tp = critical_coupling(cfg.model, cfg.scan_coupling, cfg.bracket, tie=cfg.scan_tie)
        _write_json(emit("transition.json"), dataclasses.asdict(tp))
    elif cfg.command == "no-go":
        ok = no_go_check(cfg.model, cfg.lambda_max, n_points=cfg.n_points,
                         which=cfg.scan_coupling, kappa_rule=cfg.kappa_rule)
        _write_json(emit("nogo.json"), {
            "no_transition": ok,
            "coupling": list(cfg.scan_coupling),
            "lambda_max": cfg.lambda_max,
            "n_points": cfg.n_points,
            "kappa_rule": cfg.kappa_rule,
        })
    elif cfg.command == "ed-ground":
        if cfg.ed_n_max is not None:
            res = ed_ground(cfg.model, cfg.ed_n_max, max_dim=cfg.ed_max_dim)
        else:
            res = converge_cutoff(cfg.model, max_dim=cfg.ed_max_dim)
        _write_ed_csv(emit("ed.csv"), cfg.model.atom.d, [ed_csv_row(res, cfg.model)])
        if cfg.ed_dump_state:
            dump_state(emit("psi0.npz"), res)
    elif cfg.command == "ed-nscan":
        x_star = minimize(cfg.model).x_star    # e(x) does not depend on N
        rows = [ed_csv_row(converge_cutoff(cfg.model.with_n_atoms(n), max_dim=cfg.ed_max_dim,
                                           x_star=x_star), cfg.model)
                for n in cfg.ed_n_list]
        _write_ed_csv(emit("ed.csv"), cfg.model.atom.d, rows)
    elif cfg.command == "cpb-sweet-spot":
        write_cpb_csv(emit("cpb.csv"), cfg.cpb_specs)
    elif cfg.command == "trk-check":
        report = trk_report(cfg.model)
        _write_json(emit("trk.json"), {
            "kappa": cfg.model.kappa,
            "kappa_min": report.kappa_min,
            "kappa_saturates_ground": report.kappa_saturates_ground,
            "unconstrained_transitions": [list(p) for p in report.unconstrained_transitions],
        })
    else:  # pragma: no cover - parse_config rejects unknown commands
        raise ConfigError("$.command", f"unhandled command {cfg.command!r}")

    wall = time.perf_counter() - t0
    checksums = {}
    for name, path in sorted(written.items()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        checksums[name] = f"sha256:{digest}"
        if verbose:
            print(f"wrote {path} ({checksums[name][:18]}...)", file=sys.stderr)
    manifest = {
        "artifact_version": __version__,
        "command": cfg.command,
        "config": cfg.echo,
        "wall_time_s": wall,
        "outputs": checksums,
    }
    _write_json(outdir / "manifest.json", manifest)
    written["manifest.json"] = outdir / "manifest.json"
    return written


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="dickelab",
        description="Solvers for superradiant transitions in multilevel Dicke models.")
    parser.add_argument("config", help="path to a JSON config document")
    parser.add_argument("-o", "--output-dir", default=None,
                        help="directory for artifacts (default: config 'output' or cwd)")
    parser.add_argument("--seed", type=int, default=None,
                        help="accepted and ignored: no result depends on a seed")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    outdir = Path(args.output_dir) if args.output_dir else None
    try:
        try:
            raw = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError("$", f"cannot read config: {exc}") from exc
        try:
            doc = json.loads(raw)
        except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
            raise ConfigError("$", f"invalid JSON: {exc}") from exc
        cfg = parse_config(doc)
        outdir = Path(args.output_dir or cfg.output or ".")
        if args.seed is not None:
            config_int(args.seed, "--seed", minimum=0)       # validated, then ignored
        run(cfg, outdir, verbose=args.verbose)
        return 0
    except ConfigError as exc:
        return _fail(outdir, exc, 2)
    except ResourceLimitError as exc:
        return _fail(outdir, exc, 4)
    except SolverError as exc:
        return _fail(outdir, exc, 3)


def _fail(outdir: Path | None, exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    record = {"error_type": type(exc).__name__, "message": str(exc), "exit_code": code}
    if isinstance(exc, ConfigError):
        record["path"] = exc.path
    if isinstance(exc, SolverError) and exc.trace:
        record["trace"] = [[n, e] for n, e in exc.trace]
    if isinstance(exc, ConvergenceError) and exc.best_residual is not None:
        record["best_residual"] = exc.best_residual
    if outdir is not None:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            _write_json(outdir / "error.json", record)
        except OSError:
            pass
    return code


if __name__ == "__main__":
    raise SystemExit(main())
