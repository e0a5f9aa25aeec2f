"""Reference report writers: each report as a dict payload dumped by
``json.dumps(sort_keys=True, indent=2)``, and the CSV writers that join
every row from its cells.  `qmloc.harness.render_report` must match them
byte for byte."""
import io
import json

import numpy as np


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def to_json_dict(report):
    return {
        "global_error_sq": report.global_error_sq,
        "loci": {
            kind: [{"id": int(i), "error_sq": float(e)} for i, e in entries]
            for kind, entries in report.loci.items()
        },
        "sums": {kind: report.locus_sum(kind) for kind in report.loci},
        "ratios": {kind: report.ratio(kind) for kind in report.loci},
        "metadata": report.metadata,
    }


def hexagon_csv(reports) -> str:
    buf = io.StringIO()
    buf.write("# experiment: hexagon\n")
    buf.write("eps,global_sq,sum_element_sq,sum_pair_sq,sum_star_sq,"
              "ratio_element,ratio_pair,ratio_star\n")
    for rep in reports:
        row = [rep.metadata["eps"], rep.global_error_sq,
               rep.locus_sum("element"), rep.locus_sum("pair"), rep.locus_sum("star"),
               rep.ratio("element"), rep.ratio("pair"), rep.ratio("star")]
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def generic_csv(reports) -> str:
    buf = io.StringIO()
    if reports:
        kind = reports[0].metadata.get("experiment", "unknown")
        buf.write(f"# experiment: {kind}\n")
    keys = sorted({
        key for rep in reports for key in rep.metadata
        if isinstance(rep.metadata[key], (int, float, str, bool, np.integer, np.floating))
    })
    buf.write(",".join(["sweep_index"] + keys +
                       ["global_sq", "locus_kind", "locus_id", "error_sq"]) + "\n")
    for idx, rep in enumerate(reports):
        meta = [_fmt(rep.metadata.get(key, "")) for key in keys]
        if not rep.loci:
            buf.write(",".join([str(idx)] + meta + [_fmt(rep.global_error_sq), "", "", ""]) + "\n")
        for kind in sorted(rep.loci):
            for locus_id, err in rep.loci[kind]:
                buf.write(",".join(
                    [str(idx)] + meta +
                    [_fmt(rep.global_error_sq), kind, str(int(locus_id)), _fmt(err)]
                ) + "\n")
    return buf.getvalue()


def render_report(reports, fmt: str = "csv") -> str:
    if fmt == "json":
        payload = [to_json_dict(rep) for rep in reports]
        return json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"
    if reports and reports[0].metadata.get("experiment") == "hexagon":
        return hexagon_csv(reports)
    return generic_csv(reports)
