"""The traced run: spans around the benchmark's own calls into each germlab layer.

Every subject is built fresh, then the public functions of each module are
called once in pipeline order (semigroups, semilattices, actions, groupoids,
congruences, extensions, algebra), each call inside a span.  Then each suite
of the workload gets its own ``run_suite`` call on another fresh object, the
corpus-wide checks their own ``global_reports`` call.  No span sits inside
germlab itself, so a layer's time includes whatever that call does
internally (``mu_projection_hom`` rebuilds the universal germs, ``embed``
re-checks its bundle hypotheses, and so on).

Spans are kept in memory as (name, subject, parent, start, end) and returned
with the result when the run ends.
"""

from __future__ import annotations

import statistics
import time
import traceback
import zlib
from collections import Counter, defaultdict
from contextlib import contextmanager

ALGEBRA_CALLS = 5      # calls per algebra function per subject; the median is kept

# Each names a sum of span times in seconds, except the algebra ones, which
# add up the median time of one call on each subject.
TIME_METRICS = (
    "io.load", "builtins.build", "semigroups.validate", "semigroups.order",
    "semilattices.filters", "semilattices.munn",
    "actions.universal_action", "actions.tight_action", "actions.germ_groupoid",
    "actions.germ_equivalence", "actions.kernel", "actions.centralizer_germs",
    "groupoids.validate", "groupoids.isotropy", "groupoids.subgroupoid",
    "groupoids.isomorphic",
    "congruences.mu", "congruences.quotient", "congruences.sigma", "congruences.sampled",
    "congruences.transversal",
    "extensions.projection", "extensions.cocycle", "extensions.semidirect",
    "algebra.convolve", "algebra.involution", "algebra.regular_rep", "algebra.svd",
    "algebra.norm", "algebra.embed", "algebra.expectation",
    "suites.universal", "suites.tight", "suites.extension", "suites.algebra",
    "suites.global",
)
COUNT_METRICS = (
    "semilattices.idempotents", "semilattices.filters", "semilattices.ultrafilters",
    "actions.points", "actions.arrows",
    "groupoids.units", "groupoids.composable_pairs", "groupoids.basis_sets",
    "groupoids.isomorphic_capped", "groupoids.isomorphic_attempts",
    "congruences.transversal_budget_hits",
    "algebra.convolve_ops", "algebra.svd_blocks", "algebra.svd_rows",
)


class Tracer:
    """Spans and counters of one traced run, held in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, subject: str | None = None):
        record = [name, subject, self._open[-1] if self._open else None, 0.0, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[3] = time.perf_counter()
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def dump(self) -> list[dict]:
        """Every span with its self time: its duration minus its children's."""
        child_time = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [{"name": name, "subject": subject, "parent": parent, "start": start,
                 "end": end, "self_s": end - start - child_time[i]}
                for i, (name, subject, parent, start, end) in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, float]:
        totals: dict[str, float] = dict.fromkeys(TIME_METRICS, 0.0)
        per_call = defaultdict(list)
        for name, subject, _, start, end in self.spans:
            if name.startswith("algebra."):
                per_call[(name, subject)].append(end - start)
            elif name in totals:
                totals[name] += end - start
        for (name, _), times in per_call.items():
            totals[name] += statistics.median(times)
        out = {f"{name}_s": value for name, value in totals.items()}
        out.update({name: float(self.counts[name]) for name in COUNT_METRICS})
        return out


def _pipeline(tr: Tracer, name: str, S, *, cubic_checks: bool) -> None:
    """One call into each layer's public functions, in pipeline order."""
    import numpy as np

    from germlab import algebra as alg
    from germlab.actions import (action_kernel, centralizer_germs, germ_equivalence_is_equivalence,
                                 germ_groupoid, tight_action, universal_action)
    from germlab.congruences import (find_split_transversal, mu_relation, quotient,
                                     random_idempotent_separating_congruences,
                                     sigma_and_group_image)
    from germlab.errors import SearchBudgetExceeded
    from germlab.extensions import mu_projection_hom, semidirect_from_split, sigma_cocycle
    from germlab.groupoids import (fiber_group, group_as_groupoid, groupoid_isomorphic,
                                   is_effective, is_essentially_principal, is_group_bundle,
                                   iso_bundle, iso_interior, subgroupoid_properties,
                                   validate_groupoid)
    from germlab.semigroups import centralizer, h_class_of, h_classes, natural_leq
    from germlab.semilattices import all_filters, munn_semigroup, semilattice_of, ultrafilters
    from germlab.suites import MUNN_CHECK_CAP

    span, count = tr.span, tr.counts.update
    seed = zlib.crc32(name.encode())

    with span("semigroups.order", name):
        for a in S.elements():
            for b in S.elements():
                natural_leq(S, a, b)
        h_classes(S)
        centralizer(S)

    with span("semilattices.filters", name):
        E = semilattice_of(S)
        filters = all_filters(E)
        ultra = ultrafilters(E)
    count({"semilattices.idempotents": E.size, "semilattices.filters": len(filters),
           "semilattices.ultrafilters": len(ultra)})
    if E.size <= MUNN_CHECK_CAP:
        with span("semilattices.munn", name):
            munn_semigroup(E)

    with span("actions.universal_action", name):
        universal = universal_action(S)
    with span("actions.tight_action", name):
        tight = tight_action(S)
    with span("actions.germ_groupoid", name):
        beta = germ_groupoid(universal)
        theta = germ_groupoid(tight)
    for germs in (beta, theta):
        count({"actions.points": germs.action.space_size,
               "actions.arrows": germs.groupoid.n_arrows})
    if cubic_checks:
        with span("actions.germ_equivalence", name):
            germ_equivalence_is_equivalence(universal)
    with span("actions.kernel", name):
        action_kernel(universal)
        action_kernel(tight)
    with span("actions.centralizer_germs", name):
        z_beta = centralizer_germs(beta)
        centralizer_germs(theta)

    G = beta.groupoid
    with span("groupoids.validate", name):
        validate_groupoid(G)
        validate_groupoid(theta.groupoid)
    for H in (G, theta.groupoid):
        count({"groupoids.units": len(H.units), "groupoids.composable_pairs": len(H.comp),
               "groupoids.basis_sets": len(H.basis)})
    with span("groupoids.isotropy", name):
        iso_bundle(G)
        iso_interior(G)
        is_group_bundle(G)
        is_effective(G)
        is_essentially_principal(G)
    with span("groupoids.subgroupoid", name):
        subgroupoid_properties(G, z_beta.arrows)
    for e in sorted(S.idempotent_set - {S.zero}):
        fiber = fiber_group(G, beta.unit_at_point[beta.principal_point(e)]).groupoid
        block = h_class_of(S, e)
        back = {s: i for i, s in enumerate(block)}
        h_group = group_as_groupoid([[back[S.mul(a, b)] for b in block] for a in block])
        count(["groupoids.isomorphic_attempts"])
        try:
            with span("groupoids.isomorphic", name):
                groupoid_isomorphic(fiber, h_group)
        except SearchBudgetExceeded:
            count(["groupoids.isomorphic_capped"])

    with span("congruences.mu", name):
        mu = mu_relation(S)
    with span("congruences.quotient", name):
        quotient(S, mu)
    with span("congruences.sigma", name):
        sigma_and_group_image(S)
    with span("congruences.sampled", name):
        random_idempotent_separating_congruences(S, seed=seed)
    transversal = None
    try:
        with span("congruences.transversal", name):
            transversal = find_split_transversal(S)
    except SearchBudgetExceeded:
        count(["congruences.transversal_budget_hits"])

    with span("extensions.projection", name):
        mu_projection_hom(S)
    if S.zero is None:
        with span("extensions.cocycle", name):
            sigma_cocycle(S)
    if transversal is not None:
        with span("extensions.semidirect", name):
            semidirect_from_split(S, transversal)

    H = z_beta.groupoid
    rng = np.random.default_rng(seed)
    for _ in range(ALGEBRA_CALLS):
        f, g, h = alg.random_function(G, rng), alg.random_function(G, rng), \
            alg.random_function(H, rng)
        with span("algebra.convolve", name):
            alg.convolve(f, g)
        with span("algebra.involution", name):
            alg.involution(f)
        with span("algebra.regular_rep", name):
            rep = alg.regular_representation(G, f)
        with span("algebra.svd", name):
            for block in rep.blocks:
                alg.spectral_norm(block)
        with span("algebra.norm", name):
            alg.reduced_norm(G, f)
        with span("algebra.embed", name):
            alg.embed(z_beta, h)
        with span("algebra.expectation", name):
            alg.conditional_expectation(z_beta, f)
    count({"algebra.convolve_ops": len(G.comp), "algebra.svd_blocks": len(rep.blocks),
           "algebra.svd_rows": sum(b.shape[0] for b in rep.blocks)})


def traced_run(manifest: dict) -> dict:
    """Traced set-up, pipeline and suite calls; returns spans, metrics and reports."""
    from germlab.io import load_semigroup
    from germlab.semigroups import validate_inverse_semigroup
    from germlab.suites import SUITE_NAMES
    from workloads import GLOBAL, build_recipe, load_subjects, operations, run_operation

    tr = Tracer()
    with tr.span("setup"):
        for s in manifest["subjects"]:
            with tr.span("io.load", s["name"]):
                S = load_semigroup(s["file"])
            with tr.span("builtins.build", s["name"]):
                build_recipe(s["recipe"])
            with tr.span("semigroups.validate", s["name"]):
                validate_inverse_semigroup(S.table, S.labels)

    cubic = {s["name"]: s["cubic_checks"] for s in manifest["subjects"]}
    with tr.span("pipeline"):
        for name, S in load_subjects(manifest).items():
            with tr.span("subject", name):
                _pipeline(tr, name, S, cubic_checks=cubic[name])

    reports, failures = [], []
    subjects = load_subjects(manifest)
    with tr.span("suites"):
        for name, suite in operations(manifest):
            for one in (SUITE_NAMES if suite == "all" and name is not GLOBAL else (suite,)):
                with tr.span("suites.global" if name is GLOBAL else f"suites.{one}", name):
                    try:
                        reports += run_operation(subjects, name, one)
                    except Exception:  # counted like a crash in an untraced pass
                        failures.append(f"{name} --suite {one}: {traceback.format_exc()}")
    suite_s = sum(end - start for n, _, _, start, end in tr.spans if n.startswith("suites."))
    return {"metrics": tr.layer_metrics(), "suite_s": suite_s,
            "ops": len(operations(manifest)), "op_failures": failures,
            "spans": tr.dump(), "reports": reports}
