"""The oracle accepts the pipeline's real outputs and rejects planted
wrong answers.

    python3 -m unittest discover -s catbench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import json
import random
import tempfile
import unittest
from pathlib import Path

import workloads  # noqa: F401 - puts src/ and tests/ on sys.path
from catnorm import Arrow, first_reduced, parse_schema
from oracle import (
    bcnf_verdict,
    check_doc,
    closed_form_problems,
    fournf_verdict,
    improved_bcnf_verdict,
    lost_attributes,
    lost_dependencies_only,
    naive_closure,
    reduction_problems,
    split_outputs,
)
from pipeline import DocResult, check_passes, judge, pipeline_config, run_doc
from workloads import FD_CHECKS, FD_EMIT, Doc, _text, chain_doc, \
    cluster_doc, composite_doc, contexts_doc, corpus_small, over_bound_doc, \
    wide_doc


def fs(s):
    return frozenset(s)


def join_outputs(doc, art) -> str:
    """Inverse of split_outputs: the --stdout stream of the artifacts."""
    text = ""
    if "trace" in art:
        text += json.dumps(art["trace"], indent=2) + "\n"
    text += art.get("sql", "") + art.get("dtd", "")
    if "pg" in art:
        text += json.dumps(art["pg"], indent=2, ensure_ascii=False) + "\n"
    if "report" in art:
        text += json.dumps(art["report"], indent=2) + "\n"
    return text


class Run:
    """Runs documents through the real pipeline once per test class."""

    @classmethod
    def run_one(cls, doc) -> DocResult:
        path = Path(cls.tmp.name) / f"{doc.name}.json"
        path.write_text(doc.text, encoding="utf-8")
        return run_doc(pipeline_config(doc, path))[1]

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def tampered(self, doc, res, change, rc=None) -> DocResult:
        art = copy.deepcopy(split_outputs(doc, res.stdout))
        change(art)
        return DocResult(res.rc if rc is None else rc,
                         join_outputs(doc, art), res.stderr)


class BruteForce(unittest.TestCase):
    def test_naive_closure(self):
        fds = [(fs("A"), fs("B")), (fs("BC"), fs("D"))]
        self.assertEqual(naive_closure({"A"}, fds), fs("AB"))
        self.assertEqual(naive_closure({"A", "C"}, fds), fs("ABCD"))

    def test_bcnf(self):
        fds = [(fs("B"), fs("C"))]
        self.assertEqual(bcnf_verdict(fs("ABC"), fds), "violated")
        self.assertEqual(bcnf_verdict(fs("BC"), fds), "satisfied")

    def test_improved_bcnf(self):
        # the restorable-attribute example: C of T1 follows from AB via
        # A -> E, B -> F, EF -> C, none of them inside T1
        fds = [(fs("AB"), fs("CD")), (fs("A"), fs("E")), (fs("B"), fs("F")),
               (fs("EF"), fs("C"))]
        rels = [(fs("ABCD"), fs("AB")), (fs("AE"), fs("A")),
                (fs("BF"), fs("B")), (fs("EFC"), fs("EF"))]
        self.assertEqual(improved_bcnf_verdict(rels, fds), "violated")
        self.assertEqual(improved_bcnf_verdict(rels[1:], fds), "satisfied")

    def test_4nf_by_dependency_basis(self):
        from catnorm import MVD
        mvds = [MVD(fs("A"), fs("B"), "R")]
        self.assertEqual(fournf_verdict(fs("ABC"), [], mvds), "violated")
        self.assertEqual(fournf_verdict(fs("AB"), [], mvds), "satisfied")


def reduce_doc(doc):
    """(input graph, deps, closure, 1RR) of a level-1 document."""
    from catnorm import fd_closure_graph
    graph, deps = parse_schema(doc.text)
    return (graph, deps, fd_closure_graph(graph, deps.fds),
            first_reduced(graph, deps.fds)[0])


def relations_of(graph):
    from catnorm import emit_relational
    return [(r.sort_set(), frozenset(r.candidate_keys[0]))
            for r in emit_relational(graph).relations]


class Reductions(unittest.TestCase):
    def setUp(self):
        self.doc = chain_doc(random.Random(3), 6)
        _, _, self.closed, self.reduced = reduce_doc(self.doc)

    def test_real_reduction_passes(self):
        self.assertEqual(reduction_problems(1, self.closed, self.reduced,
                                            self.reduced), [])
        self.assertEqual(closed_form_problems(self.doc.expect, self.reduced,
                                              []), [])

    def test_kept_transitive_arrow_is_caught(self):
        s, _ = self.doc.expect["arrows"][0]
        far = [t for a, t in self.doc.expect["arrows"] if a != s][-1]
        extra = self.reduced.with_arrow(Arrow("extra", s, far))
        self.assertTrue(closed_form_problems(self.doc.expect, extra, []))
        self.assertTrue(reduction_problems(1, self.closed, self.reduced,
                                           extra))

    def test_dropped_arrow_is_caught(self):
        # the declared FD that the dropped link echoes must not hide it
        thin = self.reduced.without_arrow(self.reduced.arrows[0])
        self.assertTrue(reduction_problems(1, self.closed, thin, thin))
        self.assertTrue(closed_form_problems(self.doc.expect, thin, []))


class CompositeReduction(unittest.TestCase):
    """A declared {x, y} -> z lives in the reduced graph only as the arrow
    x_y -> z.  The reduction that keeps it passes; one that drops it
    fails every check that can see the loss."""

    def setUp(self):
        self.doc = composite_doc(2)
        graph, self.deps, self.closed, reduced = reduce_doc(self.doc)
        self.graph = graph
        self.carriers = [tuple(p) for p in self.doc.expect["kept"]
                         if p[0] in self.doc.expect["composites"]]
        self.right = reduced
        for s, t in self.carriers:
            if (s, t) not in reduced.arrow_pairs():
                self.right = self.right.with_arrow(Arrow(f"{s}_{t}", s, t))

    def test_kept_carrier_passes(self):
        self.assertEqual(reduction_problems(1, self.closed, self.right,
                                            self.right), [])
        self.assertEqual(closed_form_problems(self.doc.expect, self.right,
                                              []), [])
        self.assertEqual(lost_attributes(self.graph, self.deps,
                                         relations_of(self.right)), [])

    def test_dropped_carrier_is_caught(self):
        s, t = self.carriers[0]
        thin = self.right.without_arrow(
            next(a for a in self.right.arrows if (a.source, a.target) == (s, t)))
        self.assertTrue(reduction_problems(1, self.closed, thin, thin))
        self.assertTrue(closed_form_problems(self.doc.expect, thin, []))
        self.assertEqual(lost_attributes(self.graph, self.deps,
                                         relations_of(thin)),
                         [f"attribute {t} is in no emitted relation"])


class Outputs(Run, unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        super().setUpClass()
        rng = random.Random(5)
        cls.docs = {
            "corpus": corpus_small(7)[:40],
            "composite": [composite_doc(3)],
            # a random_fd_schema draw of this shape: the 1RR prunes O0 -> O1
            # as derivable through O2, then O2 -> O1 through the declared
            # FD, and O1 vanishes
            "lost": [Doc("lost", "random_fd", _text(
                [("O0", "entity"), ("O1", "attribute"), ("O2", "attribute")],
                [("O2", "O0", False)], fds=[({"O0"}, {"O1", "O2"})]),
                "reduce", 1, FD_EMIT, FD_CHECKS, trace=True)],
            "chain": [chain_doc(rng, 8)],
            "cluster": [cluster_doc(rng, 15)],
            "contexts": [contexts_doc(rng, 3)],
            "planted": [wide_doc(rng, "planted", (4, 5), "check", 0,
                                 ("bcnf", "improved-bcnf"))],
            "fig6": [Doc("fig6", "fig6", _text(
                [("R", "relationship"), ("A", "attribute"),
                 ("B", "attribute"), ("C", "attribute")],
                [("R", a, True) for a in "ABC"],
                mvds=[({"A"}, {"B"}, "R")]), "check", 0, checks=("4nf",))],
        }
        cls.results = {k: [cls.run_one(d) for d in v] for k, v in cls.docs.items()}

    def one(self, kind, pred=lambda res: True):
        """A document whose real output the oracle accepts, so that any
        problem found after tampering comes from the tampering."""
        for doc, res in zip(self.docs[kind], self.results[kind]):
            if pred(res) and not check_doc(doc, res):
                return doc, res
        self.fail(f"no {kind} document fits")

    def test_real_outputs_pass(self):
        for kind in ("chain", "cluster", "contexts", "planted", "fig6"):
            for doc, res in zip(self.docs[kind], self.results[kind]):
                self.assertEqual(check_doc(doc, res), [], (kind, doc.name))

    def test_lost_dependencies_are_the_only_problems(self):
        # The 1RR can prune an arrow whose only support is a declared FD,
        # and the emitted schemas lose that dependency.  The oracle reports
        # that loss and nothing else on real outputs.
        for kind in ("lost", "composite"):
            for doc, res in zip(self.docs[kind], self.results[kind]):
                self.assertTrue(lost_dependencies_only(check_doc(doc, res)),
                                (kind, doc.name))

    def test_known_faults_count_as_failed(self):
        # a composite document fails while it shows the lost dependency,
        # and an over-bound one while it exits 2; neither is a problem
        doc, res = self.docs["composite"][0], self.results["composite"][0]
        self.assertEqual(judge(doc, res), (True, []))
        wide = over_bound_doc("wideb", 13, "bcnf")
        self.assertEqual(judge(wide, self.run_one(wide)), (True, []))

    def test_other_problems_of_a_known_fault_are_caught(self):
        doc, res = self.docs["composite"][0], self.results["composite"][0]
        bad = self.tampered(doc, res, lambda a: a["trace"].pop())
        self.assertFalse(judge(doc, bad)[0])
        self.assertTrue(judge(doc, bad)[1])
        self.assertTrue(judge(doc, DocResult(2, "", "boom"))[1])

    def test_same_lost_dependency_elsewhere_is_a_problem(self):
        # the fault makes only the documents marked with it fail
        doc, res = self.docs["lost"][0], self.results["lost"][0]
        failed, problems = judge(doc, res)
        self.assertFalse(failed)
        self.assertTrue(problems)

    def test_unexpected_failure_is_a_problem(self):
        doc, res = self.one("chain")
        self.assertEqual(judge(doc, res), (False, []))
        failed, problems = judge(doc, DocResult(2, "", "raised X"))
        self.assertTrue(failed)
        self.assertTrue(problems)

    def test_later_passes_are_checked(self):
        docs = self.docs["chain"] + self.docs["composite"]
        first = self.results["chain"] + self.results["composite"]
        self.assertEqual(check_passes(docs, first, [{}, {}]), ([], 3))
        doc, res = docs[0], first[0]
        wrong = DocResult(3, res.stdout, res.stderr)
        problems, _ = check_passes(docs, first, [{0: wrong}])
        self.assertTrue(problems)
        crashed = DocResult(2, "", "raised X")
        problems, _ = check_passes(docs, first, [{0: crashed}])
        self.assertIn("documents that fail differ between passes", problems)

    def test_relation_renamed_passes(self):
        doc, res = self.one("chain")
        bad = self.tampered(doc, res, lambda a: a.update(
            sql=a["sql"].replace("CREATE TABLE ", "CREATE TABLE t_", 1)))
        self.assertEqual(check_doc(doc, bad), [])

    def test_flipped_bcnf_verdict(self):
        doc, res = self.one("corpus", lambda r: r.rc == 0)

        def flip(a):
            rep = next(r for r in a["report"] if r["subject"] not in
                       ("schema", "dtd"))
            rep["verdict"] = "violated"
        self.assertTrue(check_doc(doc, self.tampered(doc, res, flip, rc=3)))

    def test_violation_reported_satisfied(self):
        doc, res = self.one("planted")
        self.assertEqual(res.rc, 3)

        def hide(a):
            for r in a["report"]:
                r["verdict"], r["witnesses"] = "satisfied", []
        self.assertTrue(check_doc(doc, self.tampered(doc, res, hide, rc=0)))

    def test_improved_bcnf_flipped(self):
        doc, res = self.one("corpus", lambda r: r.rc == 3 and
                            '"subject": "schema",\n    "verdict": "violated"'
                            in r.stdout)

        def hide(a):
            rep = next(r for r in a["report"] if r["subject"] == "schema")
            rep["verdict"], rep["witnesses"] = "satisfied", []
        bad = self.tampered(doc, res, hide)
        self.assertTrue(any("improved-BCNF" in p for p in check_doc(doc, bad)))

    def test_4nf_violation_hidden(self):
        doc, res = self.one("fig6")
        self.assertEqual(res.rc, 3)

        def hide(a):
            for r in a["report"]:
                r["verdict"], r["witnesses"] = "satisfied", []
        self.assertTrue(check_doc(doc, self.tampered(doc, res, hide, rc=0)))

    def test_bogus_witness(self):
        doc, res = self.one("planted")
        planted = json.loads(doc.text)["fds"][0]
        backwards = f"{planted['rhs'][0]} -> {planted['lhs'][0]}"

        def bogus(a):
            rep = next(r for r in a["report"] if r["witnesses"])
            rep["witnesses"][0]["dependency"] = backwards
        self.assertTrue(check_doc(doc, self.tampered(doc, res, bogus)))

    def test_wrong_exit_code(self):
        doc, res = self.one("corpus", lambda r: r.rc == 0)
        self.assertTrue(check_doc(doc, DocResult(3, res.stdout, res.stderr)))

    def test_wrong_column(self):
        doc, res = self.one("contexts")
        bad = self.tampered(doc, res, lambda a: a.update(
            sql=a["sql"].replace(",\n    m0_", ",\n    x_", 1)))
        self.assertTrue(check_doc(doc, bad))

    def test_dropped_trace_event(self):
        doc, res = self.one("cluster")
        self.assertTrue(check_doc(doc, self.tampered(
            doc, res, lambda a: a["trace"].pop())))

    def test_dtd_and_pg_structure(self):
        doc, res = self.one("cluster")
        self.assertTrue(check_doc(doc, self.tampered(
            doc, res, lambda a: a.update(dtd=a["dtd"].replace("+, ", ", ", 1)))))
        self.assertTrue(check_doc(doc, self.tampered(
            doc, res, lambda a: a["pg"]["vertices"].pop())))

    def test_over_bound(self):
        doc = over_bound_doc("wideb", 13, "bcnf")
        res = self.run_one(doc)
        self.assertEqual(res.rc, 2)           # today: "internal" failure
        self.assertEqual(check_doc(doc, res), [])
        self.assertTrue(check_doc(doc, DocResult(0, "[]\n", "")))


if __name__ == "__main__":
    unittest.main()
