package repro.engines

import repro.engines.s2x.S2X
import repro.harness.Battery
import repro.sparql.{Const, Parser, TriplePattern, Var}

class S2XSpec extends EngineContract("S2X", () => new S2X()) {

  test("edgeMatches respects constants at every position") {
    val tp = TriplePattern(Const("p1"), Const("follows"), Var("x"))
    assert(S2X.edgeMatches(tp, "p1", "follows", "p2"))
    assert(!S2X.edgeMatches(tp, "p2", "follows", "p2"))
    assert(!S2X.edgeMatches(tp, "p1", "likes", "p2"))
  }

  test("validation prunes candidates that lack a supporting neighbour") {
    // persons who follow someone *and* live somewhere: a vertex that only
    // matches one of the two patterns must not survive as ?a
    val q = Parser.parse("SELECT ?a ?b ?c WHERE { ?a follows ?b . ?a livesIn ?c }")
    val rows = engine.execute(q).collect()
    assert(rows.nonEmpty)
    // spot-check a few rows against the raw data
    val data = triples.collect().map(r => (r.getString(0), r.getString(1), r.getString(2))).toSet
    rows.take(5).foreach { r =>
      assert(data.contains((r.getString(0), "follows", r.getString(1))))
      assert(data.contains((r.getString(0), "livesIn", r.getString(2))))
    }
  }

  test("fixpoint terminates on a cyclic query") {
    val q = Parser.parse("SELECT ?a ?b WHERE { ?a follows ?b . ?b follows ?a }")
    val n = engine.execute(q).count()
    // symmetric: every (a,b) appears with (b,a)
    val rows = engine.execute(q).collect().map(r => (r.getString(0), r.getString(1))).toSet
    assert(rows.forall { case (a, b) => rows.contains((b, a)) })
    assert(n == rows.size)
  }

  test("a query leaves at most one persisted RDD behind (complex-cycle)") {
    val q = Battery.bgp.find(_.name == "complex-cycle").get.query
    val e = engine // loaded before counting: the data graph stays persisted
    val before = spark.sparkContext.getPersistentRDDs.size
    val runs = 3
    for (_ <- 1 to runs) assert(e.execute(q).count() > 0)
    assert(spark.sparkContext.getPersistentRDDs.size - before <= runs)
  }
}
