"""Command-line front door: embed, neighbors, synth, and eval commands.

Progress goes to standard error; data goes to files or standard output.
Exit codes: 0 success, 2 invalid input or parameters or out of memory,
3 unknown entity, 4 data inconsistency, 1 internal error.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from .embedding import (
    DEFAULT_DIMENSION,
    SUBSTITUTE_ITERATIONS,
    read_embedding,
    train,
    write_embedding,
)
from .errors import BasketspaceError, InvalidParameterError, MalformedInputError
from .evaluation import (
    DEFAULT_AFFINITY,
    DEFAULT_BASKETS,
    DEFAULT_GROUP_SIZE,
    DEFAULT_GROUPS_PER_THEME,
    DEFAULT_PICK_PROB,
    DEFAULT_THEMES,
    BenchmarkConfig,
    benchmark_baskets,
    generate_synthetic_market,
    read_truth,
)
from .ingest import DEFAULT_MAX_BASKET_PRODUCTS, _content_lines, expand_hyperedges, parse_baskets
from .neighbors import top_k_batch, write_neighbors


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


@contextmanager
def _decoding(path: str) -> Iterator[None]:
    """Turn bytes of ``path`` that do not decode as UTF-8 into a
    :class:`MalformedInputError` that names it; one block per input read."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise MalformedInputError(
            f"{path}: not UTF-8 text: cannot decode byte "
            f"0x{exc.object[exc.start]:02x} ({exc.reason})"
        ) from None


def _open_input(path: str | None) -> TextIO | nullcontext:
    """``path`` opened as UTF-8 text, or an empty context for no path. Every
    input is opened before any is read, so a missing one is found at once."""
    return open(path, encoding="utf-8") if path else nullcontext()


def _file_key(path: Path) -> tuple | Path:
    """``(st_dev, st_ino)`` of an existing file, which its hard links and
    every spelling of its path share; otherwise the resolved path."""
    try:
        info = path.stat()
    except OSError:
        return path.resolve()
    return info.st_dev, info.st_ino


def _check_outputs(outputs: Sequence, inputs: Sequence = ()) -> None:
    """Refuse, before any input is read rather than after all the work, an
    output that is an input or an earlier output of the command (by path
    or as a hard link), one whose directory does not exist, or one that is
    a directory."""
    taken = {_file_key(Path(p)): f"input {str(p)!r}" for p in inputs if p}
    for output, path in zip(outputs, map(Path, outputs)):
        if (key := _file_key(path)) in taken:
            raise InvalidParameterError(
                f"cannot write {str(output)!r}: it is the same file as the {taken[key]}"
            )
        taken[key] = f"output {str(output)!r}"
        if not path.parent.is_dir():
            raise InvalidParameterError(
                f"cannot write {str(path)!r}: {str(path.parent)!r} is not a directory"
            )
        if path.is_dir():
            raise InvalidParameterError(f"cannot write {str(path)!r}: it is a directory")


def cmd_embed(args: argparse.Namespace) -> int:
    started = time.monotonic()
    _check_outputs([args.output], [args.input])
    # The baskets are dropped once expanded, before training sets the peak.
    with _open_input(args.input) as stream, _decoding(args.input):
        graph = expand_hyperedges(*parse_baskets(stream, args.max_basket_size))
    isolated = int((graph.degrees == 0).sum())
    emb = train(
        graph,
        d=args.dim,
        iterations=args.iterations,
        chunks=args.chunks,
        seed=args.seed,
        threads=args.threads,
    )
    with open(args.output, "w", encoding="utf-8") as stream:
        write_embedding(emb, stream)
    elapsed = time.monotonic() - started
    _progress(
        f"embedded {len(emb)} products at dimension {emb.dimension} "
        f"with {args.iterations} iteration(s) in {elapsed:.2f}s"
    )
    _progress(f"isolated products excluded: {isolated}")
    _progress(f"zero rows replaced: {emb.zero_rows_replaced}")
    return 0


def cmd_neighbors(args: argparse.Namespace) -> int:
    if args.output:
        _check_outputs([args.output], [args.input, args.candidates])
    with _open_input(args.input) as stream, _open_input(args.candidates) as listed:
        with _decoding(args.input):
            emb = read_embedding(stream)
        candidates = None
        if args.candidates:
            with _decoding(args.candidates):
                candidates = [code for _, line in _content_lines(listed) for code in line.split()]
    queries = emb.codes if args.all else [args.query]
    rows, sims = top_k_batch(emb, queries, args.k, candidates)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            write_neighbors(emb.codes, queries, rows, sims, stream)
        _progress(f"wrote {(rows >= 0).sum()} neighbor lines to {args.output}")
    else:
        write_neighbors(emb.codes, queries, rows, sims, sys.stdout)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    truth_path = args.truth or args.output + ".truth"
    _check_outputs([args.output, truth_path])
    market = generate_synthetic_market(
        themes=args.themes,
        groups_per_theme=args.groups,
        group_size=args.group_size,
        baskets=args.baskets,
        pick_prob=args.pick_prob,
        affinity=args.affinity,
        seed=args.seed,
    )
    with open(args.output, "w", encoding="utf-8") as stream:
        market.write_baskets(stream)
    with open(truth_path, "w", encoding="utf-8") as stream:
        market.write_truth(stream)
    _progress(
        f"wrote {len(market.picks)} baskets over {len(market.product_codes)} "
        f"products to {args.output}"
    )
    _progress(f"wrote ground truth to {truth_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    truth_path = args.truth or args.input + ".truth"
    if args.output:
        out = Path(args.output)
        # out.with_suffix(".txt"), without its ValueError on "." or "/".
        text_path = out.parent / (out.stem + ".txt")
        _check_outputs([out, text_path], [args.input, truth_path])
    with _open_input(args.input) as stream, _open_input(truth_path) as truth:
        with _decoding(args.input):
            graph = expand_hyperedges(*parse_baskets(stream))
        with _decoding(truth_path):
            membership = read_truth(truth)
    config = BenchmarkConfig(
        dimension=args.dim,
        substitute_iterations=args.iterations,
        chunks=args.chunks,
        seed=args.seed,
        k=args.k,
        threads=args.threads,
    )
    started = time.monotonic()
    report = benchmark_baskets(graph, membership, config)
    elapsed = time.monotonic() - started
    _progress(f"benchmark finished in {elapsed:.2f}s over {report.n_queries} queries")
    if args.output:
        out.write_text(report.to_json() + "\n", encoding="utf-8")
        text_path.write_text(report.text_table(), encoding="utf-8")
        _progress(f"wrote JSON report to {out} and text table to {text_path}")
    else:
        print(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basketspace",
        description=(
            "Embed products from transaction baskets and mine substitute/"
            "complement recommendations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    embed = sub.add_parser("embed", help="train an embedding from a basket file")
    embed.add_argument("--input", required=True, help="basket file to read")
    embed.add_argument("--output", required=True, help="embedding file to write")
    embed.add_argument("--dim", type=int, default=DEFAULT_DIMENSION)
    embed.add_argument("--iterations", type=int, default=SUBSTITUTE_ITERATIONS)
    embed.add_argument("--chunks", type=int, default=1)
    embed.add_argument("--seed", type=int, default=0)
    embed.add_argument("--threads", type=int, default=1)
    embed.add_argument(
        "--max-basket-size",
        type=int,
        default=DEFAULT_MAX_BASKET_PRODUCTS,
        help="reject basket lines with more distinct products than this",
    )
    embed.set_defaults(func=cmd_embed)

    nn = sub.add_parser("neighbors", help="query nearest neighbors of products")
    nn.add_argument("--input", required=True, help="embedding file to read")
    nn.add_argument("--output", help="neighbor TSV to write (default: stdout)")
    which = nn.add_mutually_exclusive_group(required=True)
    which.add_argument("--query", help="a single product code to query")
    which.add_argument("--all", action="store_true", help="query every product")
    nn.add_argument("--k", type=int, default=2)
    nn.add_argument(
        "--candidates",
        help="file of candidate codes; neighbors are restricted to these",
    )
    nn.set_defaults(func=cmd_neighbors)

    synth = sub.add_parser("synth", help="generate a synthetic market")
    synth.add_argument("--output", required=True, help="basket file to write")
    synth.add_argument(
        "--truth", help="ground-truth file to write (default: <output>.truth)"
    )
    synth.add_argument("--themes", type=int, default=DEFAULT_THEMES)
    synth.add_argument("--groups", type=int, default=DEFAULT_GROUPS_PER_THEME)
    synth.add_argument("--group-size", type=int, default=DEFAULT_GROUP_SIZE)
    synth.add_argument("--baskets", type=int, default=DEFAULT_BASKETS)
    synth.add_argument("--pick-prob", type=float, default=DEFAULT_PICK_PROB)
    synth.add_argument("--affinity", type=float, default=DEFAULT_AFFINITY)
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(func=cmd_synth)

    ev = sub.add_parser("eval", help="run the benchmark on baskets plus truth")
    ev.add_argument("--input", required=True, help="basket file to read")
    ev.add_argument(
        "--truth", help="ground-truth file to read (default: <input>.truth)"
    )
    ev.add_argument(
        "--output", help="report JSON path; a .txt table is written next to it"
    )
    ev.add_argument("--dim", type=int, default=128)
    ev.add_argument(
        "--iterations",
        type=int,
        default=SUBSTITUTE_ITERATIONS,
        help="iterations for the substitute space (complements always use 1)",
    )
    ev.add_argument("--chunks", type=int, default=1)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--k", type=int, default=2)
    ev.add_argument("--threads", type=int, default=1)
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BasketspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory during {args.command}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
