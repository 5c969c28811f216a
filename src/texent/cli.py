"""Command-line interface: tiling, GLCM export, entropy features, maps, classification.

Exit status is 0 on success, 1 for domain or usage errors (the message names
the offending flag or file), and 2 for I/O or parse failures.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

from . import classifier, dataset, fbim, glcm, measures
from ._text import sig15
from .errors import DomainError, PgmError

_COMPARE_MEASURES = tuple(kind for kind in measures.MEASURE_KINDS
                          if kind != measures.PROPOSED_NORMALIZED)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this CLI reserves 2 for I/O.
    def error(self, message):
        raise _UsageError(message)


def _add_common(p, *, threads=False):
    p.add_argument("--levels", type=int, default=256,
                   help="requantize the image down to this many gray bins (default 256)")
    p.add_argument("--symmetric", action="store_true",
                   help="count each pixel pair in both directions")
    if threads:
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
        p.add_argument("--threads", type=int, default=usable,
                       help="worker threads (default: CPUs this process may use)")


def _add_orders(p):
    p.add_argument("--alpha", type=float, default=2.0, help="Renyi order (default 2)")
    p.add_argument("--q", type=float, default=2.0, help="Tsallis exponent (default 2)")


def _add_measure(p):
    p.add_argument("--measure", choices=measures.MEASURE_KINDS, default=measures.PROPOSED,
                   help="entropy measure (default proposed)")
    _add_orders(p)


def _add_distances(p):
    p.add_argument("--dist", type=int, default=31,
                   help="spacing-vector magnitude in pixels (default 31)")
    p.add_argument("--drange", metavar="START:END", default=None,
                   help="inclusive distance range; one feature per distance")


def build_parser() -> _Parser:
    parser = _Parser(prog="texent",
                     description="Texture analysis with a Gaussian-gain entropy.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("tile", help="split an image into square tiles")
    p.add_argument("image", help="input PGM")
    p.add_argument("--size", type=int, required=True, help="tile side in pixels")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("glcm", help="write a co-occurrence count matrix as CSV")
    p.add_argument("image", help="input PGM")
    p.add_argument("--dist", type=int, default=31, help="spacing magnitude (default 31)")
    p.add_argument("--angle", type=int, choices=list(glcm.ANGLES), default=0,
                   help="spacing angle in degrees (default 0)")
    _add_common(p)
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_glcm)

    p = sub.add_parser("entropy", help="print per-image entropy feature values")
    p.add_argument("image", help="input PGM")
    _add_measure(p)
    _add_distances(p)
    _add_common(p)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("fbim", help="write a polar interaction map as PGM and CSV")
    p.add_argument("image", help="input PGM")
    p.add_argument("--feature", default="proposed",
                   choices=[*measures.MEASURE_KINDS, fbim.CORRELATION],
                   help="feature to map (default proposed)")
    _add_orders(p)
    p.add_argument("--dmax", type=int, default=31,
                   help="largest spacing magnitude (default 31)")
    p.add_argument("--out", required=True, help="output PGM map")
    p.add_argument("--csv", default=None, help="also write cell values as CSV")
    _add_common(p, threads=True)
    p.set_defaults(func=_cmd_fbim)

    p = sub.add_parser("classify", help="train and evaluate a texture classifier")
    _add_classify_args(p)
    _add_measure(p)
    p.add_argument("--report", required=True, help="output report CSV")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("compare", help="run classify for every entropy measure")
    _add_classify_args(p)
    _add_orders(p)
    p.add_argument("--report", required=True, help="output combined report CSV")
    p.set_defaults(func=_cmd_compare)

    return parser


def _add_classify_args(p):
    p.add_argument("--train", required=True,
                   help="corpus directory (one subdirectory of PGM tiles per class)")
    p.add_argument("--test", default=None,
                   help="held-out corpus; omit to split --train by --seed")
    _add_distances(p)
    p.add_argument("--classifier", choices=[classifier.ONE_NN, classifier.NEAREST_CENTROID],
                   default=classifier.ONE_NN, help="classifier kind (default 1nn)")
    p.add_argument("--seed", type=int, default=42, help="split seed (default 42)")
    p.add_argument("--fraction", type=float, default=0.5,
                   help="train fraction for the split (default 0.5)")
    p.add_argument("--trials", type=int, default=1,
                   help="average over this many seeded splits (default 1)")
    p.add_argument("--features-out", default=None, help="also write the feature table CSV")
    _add_common(p, threads=True)


def _quantized(img: glcm.GrayImage, levels: int) -> glcm.GrayImage:
    return img.quantize(min(levels, img.levels))


def _distances_from(args) -> "int | list[int]":
    if args.drange is None:
        if args.dist < 1:
            raise DomainError(f"--dist must be >= 1, got {args.dist}")
        return args.dist
    parts = args.drange.split(":")
    try:
        start, end = (int(x) for x in parts)
    except ValueError:
        raise DomainError(f"--drange must be START:END, got {args.drange!r}") from None
    if len(parts) != 2 or start < 1 or end < start:
        raise DomainError(f"--drange must satisfy 1 <= START <= END, got {args.drange!r}")
    return list(range(start, end + 1))


def _cmd_tile(args) -> int:
    img = dataset.read_pgm(args.image)
    tiles = dataset.tile(img, args.size)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cols = img.width // args.size
    for i, t in enumerate(tiles):
        dataset.write_pgm(out / f"r{i // cols}_c{i % cols}.pgm", t)
    print(f"wrote {len(tiles)} tiles to {out}")
    return 0


def _cmd_glcm(args) -> int:
    img = _quantized(dataset.read_pgm(args.image), args.levels)
    g = glcm.compute_glcm(
        img, glcm.SpacingVector(d=args.dist, theta=args.angle), args.symmetric
    )
    text = "\n".join(",".join(str(int(v)) for v in row) for row in g.counts) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_entropy(args) -> int:
    img = _quantized(dataset.read_pgm(args.image), args.levels)
    measure = measures.EntropyMeasure.select(args.measure, args.alpha, args.q)
    values = dataset.extract_feature(img, measure, _distances_from(args), args.symmetric)
    for v in values:
        print(sig15(v))
    return 0


def _cmd_fbim(args) -> int:
    img = _quantized(dataset.read_pgm(args.image), args.levels)
    feature = (args.feature if args.feature == fbim.CORRELATION
               else measures.EntropyMeasure.select(args.feature, args.alpha, args.q))
    f = fbim.compute_fbim(img, feature, d_max=args.dmax,
                          symmetric=args.symmetric, threads=args.threads)
    dataset.write_pgm(args.out, fbim.fbim_to_image(f))
    if args.csv:
        Path(args.csv).write_text(fbim.fbim_to_csv(f))
    return 0


def _corpus_features(args, measure_by_column, roots):
    """Feature sets per measure for each corpus root, from tiles of one level count."""
    distances = _distances_from(args)
    corpora = [[(label, tile, _quantized(img, args.levels))
                for label, tile, img in dataset.load_labeled_images(root)]
               for root in roots]
    # Features of tiles with different level counts lie on different scales.
    first_label, first_tile, first = corpora[0][0]
    for label, tile, img in itertools.chain(*corpora):
        if img.levels != first.levels:
            raise DomainError(f"tile {label}/{tile} has {img.levels} gray levels but "
                              f"{first_label}/{first_tile} has {first.levels}; "
                              f"use --levels to quantize every tile alike")
    return [dataset.build_feature_sets(items, measure_by_column, distances,
                                       args.symmetric, args.threads)
            for items in corpora]


def _evaluate_pair(args, full_set, test_set=None):
    """(validation, cross-validation) reports for one measure's features."""
    if test_set is not None:
        if args.trials != 1:
            raise DomainError("--trials applies only when --test is omitted")
        return classifier.two_way(full_set, test_set, args.classifier)
    if args.trials < 1:
        raise DomainError(f"--trials must be >= 1, got {args.trials}")
    specs = [dataset.SplitSpec(seed=args.seed + trial, fraction=args.fraction)
             for trial in range(args.trials)]
    folds = classifier.repeated_cross_validate(full_set, specs, args.classifier)
    return tuple(classifier.mean_report(reports) for reports in zip(*folds))


def _classify_all(args, measure_by_column):
    """Write the report and the first measure's feature table; return the reports."""
    roots = [args.train] if args.test is None else [args.train, args.test]
    per_root = _corpus_features(args, measure_by_column, roots)
    if args.features_out:
        first = next(iter(measure_by_column))
        dataset.write_feature_csv(args.features_out, dataset.LabeledFeatureSet(
            r for sets in per_root for r in sets[first].records))
    pairs = {column: _evaluate_pair(args, *(sets[column] for sets in per_root))
             for column in measure_by_column}
    Path(args.report).write_text(classifier.report_table(pairs))
    return pairs


def _cmd_classify(args) -> int:
    measure = measures.EntropyMeasure.select(args.measure, args.alpha, args.q)
    v, cv = _classify_all(args, {"accuracy": measure})["accuracy"]
    print(f"average_v={sig15(v.average_accuracy)} average_cv={sig15(cv.average_accuracy)}")
    return 0


def _cmd_compare(args) -> int:
    pairs = _classify_all(args, {
        name: measures.EntropyMeasure.select(name, args.alpha, args.q)
        for name in _COMPARE_MEASURES
    })
    for name, (v, cv) in pairs.items():
        print(f"{name} average_v={sig15(v.average_accuracy)} "
              f"average_cv={sig15(cv.average_accuracy)}")
    return 0


def run(argv) -> int:
    """Parse and execute one invocation; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except _UsageError as e:
        parser.print_usage(sys.stderr)
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (PgmError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
