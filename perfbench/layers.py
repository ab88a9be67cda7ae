"""The layers a traced round measures, and the per-layer metrics built from them.

Each ``Target`` names a freepd function by module and attribute.  The metric
family is the target's layer; ``pdcore.io`` gathers the four file functions,
whose nested spans the self times keep apart.  ``extend.stages`` counts
calls of the stage writer without a span, so the copying it does stays in
the self time of its caller.  Counts and self times are totals over the
traced rounds divided by their number, the ratios divide such totals, and
``energysolver.encost`` is the largest value any traced round wrote.
"""

from tracer import Target


def _gram_entries(result):
    return result.shape[0] * result.shape[1]


def _space_entries(result):
    return result.gram.shape[0] * result.gram.shape[1]


def _level(g, *args, **kwargs):
    return g


TARGETS = [
    Target("words.clique", "freepd.words", "clique", key=_level),
    Target("words.index_set", "freepd.words", "index_set"),
    Target("pdcore.PDFunction", "freepd.pdcore", "PDFunction.__init__"),
    Target("pdcore.gram_indexed", "freepd.pdcore", "gram_indexed", size=_gram_entries),
    Target("pdcore.check_pd", "freepd.pdcore", "check_pd"),
    Target("pdcore.io", "freepd.pdcore", "load_function"),
    Target("pdcore.io", "freepd.pdcore", "save_function"),
    Target("pdcore.io", "freepd.pdcore", "function_from_dict"),
    Target("pdcore.io", "freepd.pdcore", "write_json_atomic"),
    Target("hilbert.build_partial_space", "freepd.hilbert", "build_partial_space",
           size=_space_entries),
    Target("hilbert.ortho_matrices", "freepd.hilbert", "ortho_matrices"),
    Target("hilbert.residual_from_gram", "freepd.hilbert", "residual_from_gram"),
    Target("extend.central_extension", "freepd.extend", "central_extension"),
    Target("extend.extend_entry", "freepd.extend", "extend_entry"),
    Target("extend.stages", "freepd.extend", "_write_and_advance", span=False),
    Target("transport.relative_energy", "freepd.transport", "relative_energy"),
    Target("transport.partial_relative_energy", "freepd.transport", "partial_relative_energy"),
    Target("transport.pencil", "freepd.transport", "_top_generalized_eig"),
    Target("energysolver.pencil", "freepd.energysolver", "_pencil"),
    Target("energysolver.stage_energy", "freepd.energysolver", "stage_energy"),
    Target("energysolver.solve_configuration", "freepd.energysolver", "solve_configuration"),
    Target("energysolver.encost_report", "freepd.energysolver", "encost_report"),
    Target("energysolver.make_singular", "freepd.energysolver", "make_singular"),
    Target("surgery.perform_surgery", "freepd.surgery", "perform_surgery"),
    Target("surgery.verify_conditions", "freepd.surgery", "verify_conditions"),
    Target("surgery.LabeledGraph.from_dict", "freepd.surgery", "LabeledGraph.from_dict"),
    Target("cli.dispatch", "freepd.cli", "dispatch"),
]

# (metric, unit, kind, layer): kind is calls, self_s, entries or a derived name.
METRICS = [
    ("words.clique.calls", "count", "calls", "words.clique"),
    ("words.clique.self_s", "s", "self_s", "words.clique"),
    ("words.clique.calls_per_level", "ratio", "per_level", "words.clique"),
    ("words.index_set.calls", "count", "calls", "words.index_set"),
    ("words.index_set.self_s", "s", "self_s", "words.index_set"),
    ("pdcore.PDFunction.calls", "count", "calls", "pdcore.PDFunction"),
    ("pdcore.PDFunction.self_s", "s", "self_s", "pdcore.PDFunction"),
    ("pdcore.gram_indexed.calls", "count", "calls", "pdcore.gram_indexed"),
    ("pdcore.gram_indexed.self_s", "s", "self_s", "pdcore.gram_indexed"),
    ("pdcore.gram_indexed.entries", "count", "entries", "pdcore.gram_indexed"),
    ("pdcore.check_pd.calls", "count", "calls", "pdcore.check_pd"),
    ("pdcore.check_pd.self_s", "s", "self_s", "pdcore.check_pd"),
    ("pdcore.io.self_s", "s", "self_s", "pdcore.io"),
    ("hilbert.build_partial_space.calls", "count", "calls", "hilbert.build_partial_space"),
    ("hilbert.build_partial_space.self_s", "s", "self_s", "hilbert.build_partial_space"),
    ("hilbert.build_partial_space.entries", "count", "entries", "hilbert.build_partial_space"),
    ("hilbert.build_partial_space.calls_per_stage", "ratio", "per_stage",
     "hilbert.build_partial_space"),
    ("hilbert.ortho_matrices.calls", "count", "calls", "hilbert.ortho_matrices"),
    ("hilbert.ortho_matrices.self_s", "s", "self_s", "hilbert.ortho_matrices"),
    ("hilbert.residual_from_gram.calls", "count", "calls", "hilbert.residual_from_gram"),
    ("hilbert.residual_from_gram.self_s", "s", "self_s", "hilbert.residual_from_gram"),
    ("extend.central_extension.self_s", "s", "self_s", "extend.central_extension"),
    ("extend.extend_entry.calls", "count", "calls", "extend.extend_entry"),
    ("extend.extend_entry.self_s", "s", "self_s", "extend.extend_entry"),
    ("extend.stages", "count", "calls", "extend.stages"),
    ("transport.relative_energy.calls", "count", "calls", "transport.relative_energy"),
    ("transport.relative_energy.self_s", "s", "self_s", "transport.relative_energy"),
    ("transport.partial_relative_energy.calls", "count", "calls",
     "transport.partial_relative_energy"),
    ("transport.partial_relative_energy.self_s", "s", "self_s",
     "transport.partial_relative_energy"),
    ("transport.pencil.calls", "count", "calls", "transport.pencil"),
    ("transport.pencil.self_s", "s", "self_s", "transport.pencil"),
    ("energysolver.pencil.calls", "count", "calls", "energysolver.pencil"),
    ("energysolver.pencil.self_s", "s", "self_s", "energysolver.pencil"),
    ("energysolver.iterations", "count", "output", "energysolver.iterations"),
    ("energysolver.pencils_per_iteration", "ratio", "per_iteration", "energysolver.pencil"),
    ("energysolver.stage_energy.calls", "count", "calls", "energysolver.stage_energy"),
    ("energysolver.stage_energy.self_s", "s", "self_s", "energysolver.stage_energy"),
    ("energysolver.solve_configuration.self_s", "s", "self_s",
     "energysolver.solve_configuration"),
    ("energysolver.encost_report.self_s", "s", "self_s", "energysolver.encost_report"),
    ("energysolver.make_singular.calls", "count", "calls", "energysolver.make_singular"),
    ("energysolver.encost", "ratio", "output_max", "energysolver.encost"),
    ("surgery.perform_surgery.self_s", "s", "self_s", "surgery.perform_surgery"),
    ("surgery.verify_conditions.self_s", "s", "self_s", "surgery.verify_conditions"),
    ("surgery.LabeledGraph.from_dict.self_s", "s", "self_s", "surgery.LabeledGraph.from_dict"),
    ("surgery.inserted_vertices", "count", "output", "surgery.inserted_vertices"),
    ("cli.dispatch.self_s", "s", "self_s", "cli.dispatch"),
    ("trace.overhead_s", "s", "overhead", "trace"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, rounds, counters, overhead):
    """Metric name -> (value, unit) from a tracer and the outputs' counters.

    ``counters`` maps an output counter to its per-round values; a metric
    whose layer was absent or never reached reads 0.
    """
    rec = tracer.recorder
    out = {}
    for name, unit, kind, layer in METRICS:
        if kind == "calls":
            value = rec.calls.get(layer, 0) / rounds
        elif kind == "self_s":
            value = rec.self_s.get(layer, 0.0) / rounds
        elif kind == "entries":
            value = rec.entries.get(layer, 0) / rounds
        elif kind == "per_level":
            value = _ratio(rec.calls.get(layer, 0), len(rec.distinct.get(layer, ())))
        elif kind == "per_stage":
            value = _ratio(rec.calls.get(layer, 0), rec.calls.get("extend.stages", 0))
        elif kind == "per_iteration":
            value = _ratio(rec.calls.get(layer, 0) / rounds,
                           sum(counters.get("energysolver.iterations", [])) / rounds)
        elif kind == "output":
            value = sum(counters.get(layer, [])) / rounds
        elif kind == "output_max":
            value = max(counters.get(layer, [0.0]))
        else:
            value = overhead
        out[name] = (value, unit)
    return out
