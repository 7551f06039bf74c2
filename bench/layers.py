"""Per-layer metrics of a traced run, named by library module.

Times are totals in milliseconds over the traced set-up and the traced
pass; counts are totals over the same work.  ``quiver.root_box_cells``
and ``quiver.cb_transitions_bound`` are computed from the inputs of the
calls, not observed inside them.
"""

from __future__ import annotations

from oracles import positive_roots

MS = 1e-6   # nanoseconds -> milliseconds


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(trace, extra):
    """``extra`` carries what the tracer cannot see: the tracing
    overhead, the fault probe and the subprocess timings."""
    calls, counts, incl, own = trace.calls, trace.counts, trace.incl_ns, trace.self_ns
    box_cells = sum(v for k, v in counts.items() if k.endswith("lattice.iter_box.yielded"))
    detect_calls = calls["stratum.detect_totally_semistable"]
    roots = counts["quiver.roots_enumerated"]
    root_cells = counts["quiver.root_box_cells"]
    transitions = 0
    for loops, arrows, n in trace.simple_rep_inputs:
        found = positive_roots(loops, arrows, n)
        if n in found:
            box = 1
            for b in n:
                box *= b + 1
            transitions += box * len(found)
    adds = calls["linalg.RowSpace.add"]
    metrics = {
        "lattice.self_ms": (own["lattice"] * MS, "ms"),
        "lattice.pairing_calls": (calls["lattice.pairing"], "count"),
        "lattice.vectors_built": (calls["lattice.LatticeVector.__post_init__"], "count"),
        "lattice.box_cells": (box_cells, "count"),
        "lattice.signature_ms": (incl["lattice.signature"] * MS, "ms"),
        "stratum.detect_ms": (incl["stratum.detect_totally_semistable"] * MS, "ms"),
        "stratum.detect_calls": (detect_calls, "count"),
        "stratum.cells_per_detect": (
            ratio(counts["stratum.lattice.iter_box.yielded"], detect_calls), "cells/call"),
        "stratum.analyze_ms": (incl["stratum.analyze_stratum"] * MS, "ms"),
        "stability.self_ms": (own["stability"] * MS, "ms"),
        "stability.z_evals": (calls["stability.StabilityFunction.__call__"], "count"),
        "decomposition.self_ms": (own["decomposition"] * MS, "ms"),
        "decomposition.built": (
            calls["decomposition.PolystableDecomposition.__post_init__"], "count"),
        "quiver.self_ms": (own["quiver"] * MS, "ms"),
        "quiver.roots_enumerated": (roots, "count"),
        "quiver.root_box_cells": (root_cells, "count"),
        "quiver.root_yield": (ratio(roots, root_cells), "roots/cell"),
        "quiver.quadratic_form_calls": (calls["quiver.quadratic_form"], "count"),
        "quiver.simple_rep_ms": (incl["quiver.simple_rep_exists"] * MS, "ms"),
        "quiver.cb_transitions_bound": (transitions, "count"),
        "quiver.deep_table_ms": (extra["deep_table_ms"], "ms"),
        "walls.self_ms": (own["walls"] * MS, "ms"),
        "walls.walls_found": (counts["walls.walls_found"], "count"),
        "walls.chambers_located": (calls["walls.locate_chamber"], "count"),
        "representation.self_ms": (own["representation"] * MS, "ms"),
        "representation.destabilize_ms": (
            incl["representation.destabilizer_search"] * MS, "ms"),
        "representation.jh_ms": (incl["representation.jordan_holder_search"] * MS, "ms"),
        "representation.verify_subrep_ms": (incl["representation.verify_subrep"] * MS, "ms"),
        "representation.budget_used": (counts["representation.budget_used"], "count"),
        "representation.seeds_tried": (counts["representation.seeds_tried"], "count"),
        "linalg.self_ms": (own["linalg"] * MS, "ms"),
        "linalg.matvec_calls": (calls["linalg.matvec"], "count"),
        "linalg.rowspace_adds": (adds, "count"),
        "linalg.rowspace_add_yield": (ratio(counts["linalg.rowspace_grew"], adds), "share"),
        "scenario.load_ms": (incl["scenario.load_scenario"] * MS, "ms"),
        "scenario.digest_ms": (incl["scenario.Scenario.digest"] * MS, "ms"),
        "cli.import_ms": (extra["import_ms"], "ms"),
        "cli.handler_ms": (incl["cli.handler"] * MS, "ms"),
        "cli.encode_ms": (incl["cli.Report.as_json"] * MS, "ms"),
        "cli.process_overhead_ms": (extra["process_overhead_ms"], "ms"),
        "cli.interpreter_ms": (extra["interpreter_ms"], "ms"),
        "trace.overhead_s": (extra["overhead_s"], "s"),
    }
    return metrics
