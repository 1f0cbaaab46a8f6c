"""Command-line surface: transport checkpoints, run seeded experiments, and
generate the bundled demo fixtures.

Failures print a single ``error_kind: message`` line to stderr and exit 1.
Verbosity is controlled by the TASKPORT_LOG env var (error, info, debug).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import errno
import logging
import os
import stat
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, TaskportError, prefixed
from .linalg import DEFAULT_RCOND
from .model import (
    CheckpointReader,
    CheckpointWriter,
    LayerSpec,
    TaskVector,
    apply_layer,
    apply_update,
    calibration_shapes,
    init_checkpoint,
    load_calibration,
    require_same_specs,
    save_calibration,
    save_checkpoint,
)
from .harness.experiment import (
    ExperimentConfig,
    ModelConfig,
    SeedConfig,
    TaskConfig,
    TrainConfig,
    ablate_seqalign,
    load_config,
    run_experiment,
    write_csv,
    write_json,
)
from .harness.isometry import build_isometric_target
from .seqalign import STRATEGIES
from .transport import TransportConfig, depth_expand, transport_layers, transport_meta

__all__ = ["main"]

log = logging.getLogger("taskport.cli")

# CLI method tokens mapped to library method names.
_METHOD_TOKENS = {
    "theseus": "theseus",
    "pinv": "pinv",
    "pinv-tikh": "pinv_tikhonov",
    "zero-pad": "zero_pad",
    "random": "random",
    "random-source": "random_source",
}

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

# Keeps the fixture isometry streams disjoint from the (seed, index) streams
# used for checkpoint init and calibration draws below.
_FIXTURE_ISOMETRY_OFFSET = 7_700_417


def _setup_logging() -> None:
    name = os.environ.get("TASKPORT_LOG", "error")
    if name not in _LOG_LEVELS:
        raise ConfigError(
            f"TASKPORT_LOG={name!r} is not one of: {', '.join(_LOG_LEVELS)}"
        )
    logging.basicConfig(
        stream=sys.stderr, level=_LOG_LEVELS[name],
        format="%(levelname)s %(name)s: %(message)s",
    )


def _resolve_method(token: str) -> str:
    if token not in _METHOD_TOKENS:
        raise ConfigError(
            f"unknown method {token!r}, valid: {', '.join(_METHOD_TOKENS)}"
        )
    return _METHOD_TOKENS[token]


def _check_destinations(*paths) -> None:
    """Raise the OSError that writing to each path would raise, before any
    work: an empty path, a directory, or a missing parent. '-' is stdout."""
    for path in paths:
        parent = os.path.dirname(path) or "."
        if path == "-" or (path and os.path.isdir(parent) and not os.path.isdir(path)):
            continue
        if os.path.isdir(path):
            code = errno.EISDIR
        else:
            code = errno.ENOTDIR if path and os.path.exists(parent) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


def _same_file(a, b) -> bool:
    """Whether paths ``a`` and ``b`` name one file: by ``samefile`` where both
    exist, else by their resolved paths."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


@contextlib.contextmanager
def _replacing(path):
    """A new file, open for binary writing, that replaces ``path`` once the
    block ends without an error. It is made beside the file ``path`` resolves
    to and renamed onto that file, so a symlink keeps pointing at the new one;
    on any error it is removed and ``path`` keeps its bytes. It gets the mode
    ``open(path, "wb")`` would give: the existing file's, else 0o666 less the
    umask."""
    final = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(final).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(final)}.", suffix=".tmp",
                               dir=os.path.dirname(final))
    try:
        with open(fd, "wb") as f:
            os.fchmod(f.fileno(), mode)
            yield f
        os.replace(tmp, final)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def cmd_transport(args) -> int:
    cfg = TransportConfig(
        method=_resolve_method(args.method),
        strategy=args.seq_align,
        lam=args.lam, rcond=args.rcond, seed=args.seed,
    )
    if not np.isfinite(args.alpha):
        raise ConfigError(f"alpha must be finite, got {args.alpha}")
    if args.output == "-":
        raise ConfigError("--output takes a file path: a TPK1 checkpoint is binary, not for stdout")
    _check_destinations(args.output, args.report)
    # The checkpoint is renamed onto the file --output resolves to: its
    # directory must exist, and the file, where it exists, must be a regular
    # one, since a rename would replace a device node or a FIFO itself.
    resolved = os.path.realpath(args.output)
    _check_destinations(resolved)
    if os.path.exists(resolved) and not os.path.isfile(resolved):
        raise OSError(f"--output exists and is not a regular file: {args.output}")
    if args.report != "-" and _same_file(args.output, args.report):
        raise ConfigError(f"--output and --report name the same file: {args.report}")
    inputs = (("--source", args.source), ("--finetuned", args.finetuned),
              ("--target", args.target), ("--calib", args.calib))
    for dest_flag, dest in (("--output", args.output), ("--report", args.report)):
        for flag, path in inputs:
            if dest != "-" and _same_file(dest, path):
                raise ConfigError(f"{dest_flag} and {flag} name the same file: {dest}")
    # The three checkpoints stay open files, each layer read when the loop
    # reaches it; every path out of the block closes them.
    with contextlib.ExitStack() as stack:
        source, finetuned, target = (stack.enter_context(CheckpointReader(path))
                                     for path in (args.source, args.finetuned, args.target))
        # Checked before expansion, which would give both stacks the same specs.
        require_same_specs(source, finetuned)
        if args.depth_expand and source.depth != target.depth:
            # Expansion blends layers, so the two source stacks are loaded whole.
            log.info("expanding source depth %d -> %d", source.depth, target.depth)
            source, finetuned = (depth_expand(reader.load(), target.depth) for reader in (source, finetuned))
        # Transport reads the calibration file when it needs the pair and
        # writes over what it reads.
        layers = transport_layers(source, finetuned, target, partial(load_calibration, args.calib), cfg)
        # Each layer of the output is written, and its delta dropped, as soon
        # as the layer is transported, so the output is never whole in memory;
        # the target layer is read again for it, and the writer checks it.
        # (No enumerate: it would keep each layer until the next one is made.)
        report = {**cfg.echo(), "layers": [], "alpha": args.alpha}
        with _replacing(args.output) as f:
            writer = CheckpointWriter(f, target.layer_specs)
            for delta, bias_delta, entry in layers:
                idx = entry["layer_index"]
                writer.layer(*prefixed(f"layer {idx}")(apply_layer)(
                    target.layer_specs[idx], *target.layer(idx), delta, bias_delta, args.alpha))
                report["layers"].append(entry)
                del delta, bias_delta
            writer.finish({**target.meta, **transport_meta(report)})
    log.info("wrote transported checkpoint to %s", args.output)
    write_json(report, args.report)
    return 0


def cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    dest = args.output if args.output is not None else (cfg.output_path or "-")
    _check_destinations(dest)
    result = run_experiment(cfg, output_path=dest)
    if dest == "-":
        write_json(result, "-")
    else:
        log.info("wrote experiment result to %s", dest)
    return 0


def cmd_ablate_seqalign(args) -> int:
    _check_destinations(args.output)
    cfg = load_config(args.config)
    write_csv(ablate_seqalign(cfg), args.output)
    if args.output != "-":
        log.info("wrote ablation table to %s", args.output)
    return 0


def cmd_make_fixtures(args) -> int:
    seed = int(args.seed)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    specs = [LayerSpec(d_in=6, d_out=6, has_bias=True, activation="identity")] * 2
    theta_a = init_checkpoint(specs, np.random.SeedSequence((seed, 0)))
    theta_a.meta["role"] = "demo-source"

    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    update = TaskVector(
        deltas=[0.1 * rng.standard_normal(w.shape) for w in theta_a.weights],
        bias_deltas=[0.1 * rng.standard_normal(b.shape) for b in theta_a.biases],
    )
    theta_a_ft = apply_update(theta_a, update, 1.0)
    theta_a_ft.meta["role"] = "demo-source-finetuned"

    theta_b, true_maps = build_isometric_target(
        theta_a, widths=[9, 9, 9], seed=seed + _FIXTURE_ISOMETRY_OFFSET
    )
    theta_b.meta["role"] = "demo-target"

    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    calib_a = rng.standard_normal((64, 5, 6))
    flat = calib_a.reshape(64 * 5, 6) @ true_maps[0].in_map
    calib_b = flat.reshape(64, 5, 9)

    files = {
        "source_a.tpk": lambda p: save_checkpoint(theta_a, p),
        "source_a_ft.tpk": lambda p: save_checkpoint(theta_a_ft, p),
        "target_b.tpk": lambda p: save_checkpoint(theta_b, p),
        "calib.tpc": lambda p: save_calibration(calib_a, calib_b, p),
        "demo_config.json": lambda p: _write_demo_config(p, seed),
    }
    for name, write in files.items():
        path = outdir / name
        write(path)
        print(path)
    return 0


def _write_demo_config(path, seed: int) -> None:
    cfg = ExperimentConfig(
        task=TaskConfig(train_per_class=100, val_per_class=40, test_per_class=60,
                        pretrain_per_class=100),
        source_model=ModelConfig(width=8),
        target_model=ModelConfig(width=12),
        train=TrainConfig(pretrain_steps=150, finetune_steps=250),
        seeds=SeedConfig(data=seed, init=seed, calib=seed),
        regime="independent",
        batches_b=4,
        output_path=None,
    )
    write_json(cfg.to_dict(), path)


def cmd_inspect(args) -> int:
    with open(args.path, "rb") as f:
        magic = f.read(4)
    # Headers only: each file's layout is checked, its arrays are not read.
    if magic == b"TPK1":
        with CheckpointReader(args.path) as ckpt:
            doc = {
                "format": "TPK1",
                "layer_count": ckpt.depth,
                "layers": [
                    {"d_in": s.d_in, "d_out": s.d_out, "has_bias": s.has_bias,
                     "activation": s.activation}
                    for s in ckpt.layer_specs
                ],
                "meta": dict(ckpt.meta),
            }
    elif magic == b"TPC1":
        (n, seq_len_a, d_a), (_, seq_len_b, d_b) = calibration_shapes(args.path)
        doc = {
            "format": "TPC1", "n_samples": n,
            "seq_len_a": seq_len_a, "d_a": d_a,
            "seq_len_b": seq_len_b, "d_b": d_b,
        }
    else:
        raise FormatError(f"unrecognized magic {magic!r}, known: TPK1, TPC1", kind="bad_magic")
    write_json(doc, "-")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskport",
        description="Transport task-specific weight updates between models "
                    "of different sizes via activation alignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("transport", formatter_class=fmt,
                       help="transport a fine-tuning update onto a target checkpoint")
    p.add_argument("--source", required=True, help="base source checkpoint (TPK1)")
    p.add_argument("--finetuned", required=True, help="fine-tuned source checkpoint (TPK1)")
    p.add_argument("--target", required=True, help="target checkpoint (TPK1)")
    p.add_argument("--calib", required=True, help="paired calibration inputs (TPC1)")
    p.add_argument("--method", default="theseus",
                   help="one of: " + ", ".join(_METHOD_TOKENS))
    p.add_argument("--seq-align", default="interp2d",
                   help="sequence-length alignment: " + ", ".join(STRATEGIES))
    p.add_argument("--alpha", type=float, default=1.0, help="update scaling")
    p.add_argument("--rcond", type=float, default=DEFAULT_RCOND,
                   help="singular-value cutoff for pseudo-inverses")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="ridge strength for pinv-tikh (default: scaled to the Gram diagonal)")
    p.add_argument("--seed", type=int, default=0, help="seed for the random baselines")
    p.add_argument("--depth-expand", action="store_true",
                   help="expand the source stack to the target depth first")
    p.add_argument("--output", required=True, help="path for the transported checkpoint (not '-')")
    p.add_argument("--report", default="-", help="path for the JSON report ('-' = stdout)")
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("experiment", formatter_class=fmt,
                       help="run a seeded end-to-end transport experiment")
    p.add_argument("config", help="experiment config (JSON)")
    p.add_argument("--output", default=None,
                   help="result path ('-' = stdout; default: config output_path)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("ablate-seqalign", formatter_class=fmt,
                       help="compare sequence-alignment strategies on one config")
    p.add_argument("config", help="experiment config (JSON)")
    p.add_argument("--output", default="-", help="CSV path ('-' = stdout)")
    p.set_defaults(func=cmd_ablate_seqalign)

    p = sub.add_parser("make-fixtures", formatter_class=fmt,
                       help="write the deterministic demo checkpoints and calibration data")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.add_argument("--outdir", required=True, help="directory to write into")
    p.set_defaults(func=cmd_make_fixtures)

    p = sub.add_parser("inspect", formatter_class=fmt,
                       help="dump a binary file's header as JSON")
    p.add_argument("path", help="TPK1/TPC1 file")
    p.set_defaults(func=cmd_inspect)

    return parser


def _hold_heap():
    """Keep what a command frees in glibc's heap for reuse; the returned call
    hands every free page back when the command ends. Under glibc's default
    trimming, a transport's page faults depended on where earlier work had left
    numpy's cached buffers; this lowers one benchmark transport's faults (which
    one varies) but does not steady them. Measured again once the checkpoints
    were read one layer at a time, on three alternating 30 s benchmark pairs
    per transport workload (2 vCPUs, one BLAS thread): a settled op faulted
    20.5-22.5k pages (pinv) and 21.9-24.0k (theseus) without it, 77-84 and
    70-72 with it, and the runs peaked at 129.2-129.4 and 129.4-129.6 MB
    without it, 129.2-129.4 and 129.2-129.3 MB with it.
    Settings stay; no-op without glibc."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (AttributeError, OSError, TypeError):
        return lambda: None
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays up to 32 MiB use the heap
    mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD: never trim on free
    return lambda: malloc_trim(0)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    release = _hold_heap()
    try:
        _setup_logging()
        return args.func(args)
    except TaskportError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io_error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out_of_memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
    finally:
        release()


if __name__ == "__main__":
    sys.exit(main())
