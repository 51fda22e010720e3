"""Outside-in tracer: spans and counts around calls into fockpath's layers.

Nothing inside the package is edited.  ``Tracer.install`` replaces public
functions at the module attribute each caller looks them up under (for
example ``cli.parse_circuit`` or ``paths.normalize``) with a wrapper that
records a span, and wraps a few hot constructors and helpers with a bare
counter.  Spans ``(name, tag, start_ns, end_ns, parent, op)`` stay in
memory until ``dump`` writes them out at the end of a run.

``circuit._ENGINES`` keeps references to the unwrapped engines, so a
single-engine run is invisible here; the workloads use ``--engine both``,
which reaches the engines through ``paths.apply_transform`` and
``operators.apply_transform``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

ELEMENT_KINDS = ("rbs", "pbs", "waveplate", "rotpol", "phase")

# (module, attribute looked up by the caller, span name)
SPAN_SITES = [
    ("cli", "main", "cli.main"),
    ("cli", "parse_circuit", "circuit.parse_circuit"),
    ("cli", "run_circuit", "circuit.run_circuit"),
    ("cli", "cross_check", "circuit.cross_check"),
    ("cli", "random_circuit_text", "circuit.random_circuit_text"),
    ("cli", "airy_profile", "mirror.airy_profile"),
    ("circuit", "elaborate", "circuit.elaborate"),
    ("circuit", "initial_state", "circuit.initial_state"),
    ("circuit", "coherent_state", "coherent.coherent_state"),
    ("circuit", "default_truncation", "coherent.default_truncation"),
    ("circuit", "normalize", "fock.normalize"),
    ("circuit", "tensor_product", "fock.tensor_product"),
    ("circuit", "number_distribution", "fock.number_distribution"),
    ("circuit", "max_amplitude_difference", "fock.max_amplitude_difference"),
    ("paths", "apply_transform", "paths.apply_transform"),
    ("paths", "normalize", "fock.normalize"),
    ("operators", "apply_transform", "operators.apply_transform"),
    ("operators", "substitute_modes", "operators.substitute_modes"),
    ("operators", "state_to_polynomial", "operators.state_to_polynomial"),
    ("operators", "polynomial_to_state", "operators.polynomial_to_state"),
    ("operators", "normalize", "fock.normalize"),
    ("coherent", "normalize", "fock.normalize"),
    ("mirror", "bessel_j0", "mirror.bessel_j0"),
]


def _add_quadrature_evals(counts, args, kwargs) -> None:
    """Integrand evaluations of one focal_amplitude_quadrature call, computed
    from its arguments: a coarse and a doubled pass, 3n radial or 5n^2 polar."""
    geometry = args[1]
    nodes = kwargs.get("nodes")
    if not kwargs.get("include_aberration", False) and geometry.source == (0.0, 0.0):
        evals = 3 * (256 if nodes is None else nodes)
    else:
        n = 128 if nodes is None else nodes
        evals = 5 * n * n
    counts["mirror.integrand_evals"] += evals


# (module, attribute, counter, extra counts); their time stays in the
# caller's self time
COUNT_SITES = [
    ("paths", "scatter_two_mode", "paths.scatter_two_mode.calls", None),
    ("paths", "unitarity_defect", "elements.unitarity_defect.calls", None),
    ("elements", "unitarity_defect", "elements.unitarity_defect.calls", None),
    ("mirror", "focal_amplitude_quadrature", "mirror.focal_amplitude_quadrature.calls",
     _add_quadrature_evals),
]


def _element_kind(args, kwargs) -> str:
    return args[1].kind


def _profile_kind(args, kwargs) -> str:
    return "aberrated" if kwargs.get("include_aberration") else "plain"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    def _span(self, fn, name, tag_of=None, on_result=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            tag = tag_of(args, kwargs) if tag_of else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, tag, start, end, parent, self.op)
            if on_result:
                on_result(args, result)
            return result

        return wrapper

    def _counted(self, fn, key, extra=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if extra:
                extra(counts, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _engine_terms(self, engine):
        counts = self.counts

        def record(args, result):
            state, transform = args[0], args[1]
            counts[f"{engine}.apply_transform.terms_in"] += len(state)
            counts[f"{engine}.apply_transform.terms_out"] += len(result)
            if len(transform.in_modes) == 2:
                counts[f"{engine}.two_mode_terms"] += len(state)

        return record

    def install(self) -> None:
        """Wrap every site in the fockpath modules of this process."""
        from fockpath import circuit, cli, coherent, elements, fock, mirror, operators, paths

        modules = {
            "cli": cli, "circuit": circuit, "paths": paths, "operators": operators,
            "coherent": coherent, "elements": elements, "mirror": mirror,
        }
        special = {
            "paths.apply_transform": (_element_kind, self._engine_terms("paths")),
            "operators.apply_transform": (_element_kind, self._engine_terms("operators")),
            "mirror.airy_profile": (_profile_kind, None),
        }
        for mod, attr, name in SPAN_SITES:
            tag_of, on_result = special.get(name, (None, None))
            module = modules[mod]
            setattr(module, attr, self._span(getattr(module, attr), name, tag_of, on_result))
        # every elements.make_* constructor that circuit calls
        for attr in dir(circuit):
            fn = getattr(circuit, attr)
            if attr.startswith("make_") and getattr(fn, "__module__", "") == elements.__name__:
                setattr(circuit, attr, self._span(fn, "elements.make", lambda a, k, t=attr: t))
        for mod, attr, key, extra in COUNT_SITES:
            module = modules[mod]
            setattr(module, attr, self._counted(getattr(module, attr), key, extra))
        for cls in (fock.BasisState, fock.PhotonState):
            key = f"fock.{cls.__name__}.constructions"
            cls.__init__ = self._counted(cls.__init__, key)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, then one line of counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, tag, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, tag, start, end, parent, op]) + "\n")
            fh.write(json.dumps({"counts": dict(sorted(self.counts.items()))}) + "\n")


def load(path) -> tuple[list, dict]:
    spans, counts = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if isinstance(row, dict):
                counts = row["counts"]
            else:
                spans.append(tuple(row))
    return spans, counts


def layer_metrics(spans, counts) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from spans and counts.

    ``busy_s`` sums a span name's durations; ``self_s`` subtracts the time
    its direct child spans cover (one thread, so children never overlap).
    """
    child_ns = defaultdict(int)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, busy, self_ns = Counter(), Counter(), Counter()
    for index, (name, tag, start, end, _, _) in enumerate(spans):
        own = end - start - child_ns[index]
        for key in (name, f"{name}.{tag}") if tag else (name,):
            calls[key] += 1
            busy[key] += end - start
            self_ns[key] += own

    out: dict[str, tuple[float, str]] = {}

    def count(name, value):
        out[name] = (int(value), "count")

    def seconds(name, ns):
        out[name] = (ns / 1e9, "s")

    count("fock.BasisState.constructions", counts.get("fock.BasisState.constructions", 0))
    count("fock.PhotonState.constructions", counts.get("fock.PhotonState.constructions", 0))
    seconds("fock.normalize.busy_s", busy["fock.normalize"])
    seconds("fock.tensor_product.busy_s", busy["fock.tensor_product"])
    for engine in ("paths", "operators"):
        key = f"{engine}.apply_transform"
        count(f"{key}.calls", calls[key])
        seconds(f"{key}.self_s", self_ns[key])
        count(f"{key}.terms_in", counts.get(f"{key}.terms_in", 0))
        count(f"{key}.terms_out", counts.get(f"{key}.terms_out", 0))
        for kind in ELEMENT_KINDS:
            seconds(f"{key}.{kind}.self_s", self_ns[f"{key}.{kind}"])
        if engine == "paths":
            scatters = counts.get("paths.scatter_two_mode.calls", 0)
            count("paths.scatter_two_mode.calls", scatters)
            processed = counts.get("paths.two_mode_terms", 0)
            out["paths.scatter_hit_ratio"] = (
                1.0 - scatters / processed if processed else 0.0, "ratio"
            )
    for name in ("substitute_modes", "state_to_polynomial", "polynomial_to_state"):
        seconds(f"operators.{name}.busy_s", busy[f"operators.{name}"])
    count("circuit.parse_circuit.calls", calls["circuit.parse_circuit"])
    seconds("circuit.parse_circuit.self_s", self_ns["circuit.parse_circuit"])
    count("circuit.elaborate.calls", calls["circuit.elaborate"])
    seconds("circuit.elaborate.busy_s", busy["circuit.elaborate"])
    seconds("circuit.initial_state.busy_s", busy["circuit.initial_state"])
    seconds("circuit.run_circuit.self_s", self_ns["circuit.run_circuit"])
    seconds("circuit.cross_check.self_s", self_ns["circuit.cross_check"])
    seconds("circuit.random_circuit_text.busy_s", busy["circuit.random_circuit_text"])
    count("elements.make.calls", calls["elements.make"])
    seconds("elements.make.busy_s", busy["elements.make"])
    count("elements.unitarity_defect.calls", counts.get("elements.unitarity_defect.calls", 0))
    seconds("fock.number_distribution.busy_s", busy["fock.number_distribution"])
    seconds("fock.max_amplitude_difference.busy_s", busy["fock.max_amplitude_difference"])
    seconds("cli.main.self_s", self_ns["cli.main"])
    count("coherent.coherent_state.calls", calls["coherent.coherent_state"])
    seconds("coherent.coherent_state.busy_s", busy["coherent.coherent_state"])
    seconds("coherent.default_truncation.busy_s", busy["coherent.default_truncation"])
    seconds("mirror.airy_profile.plain.busy_s", busy["mirror.airy_profile.plain"])
    seconds("mirror.airy_profile.aberrated.busy_s", busy["mirror.airy_profile.aberrated"])
    count(
        "mirror.focal_amplitude_quadrature.calls",
        counts.get("mirror.focal_amplitude_quadrature.calls", 0),
    )
    seconds("mirror.bessel_j0.busy_s", busy["mirror.bessel_j0"])
    count("mirror.integrand_evals", counts.get("mirror.integrand_evals", 0))
    return out
