package repro.engines

import repro.Oracle
import repro.engines.s2rdf.S2Rdf
import repro.harness.Battery
import repro.sparql.{Parser, ReferenceSql}

class S2RdfSpec extends EngineContract("S2RDF", () => new S2Rdf(sfThreshold = 0.75)) {

  private lazy val s2rdf = engine.asInstanceOf[S2Rdf]

  test("every ExtVP table is at most as large as its VP table") {
    val stats = s2rdf.reductionStats
    assert(stats.nonEmpty)
    stats.foreach { case ((c, p1, p2), (ext, vp)) =>
      assert(ext <= vp, s"ExtVP_$c($p1|$p2)")
    }
  }

  test("semi-join reductions are real for correlated predicates") {
    // follows.o are persons; name.s are persons — OS reduction keeps all of
    // follows; but likes.o are products, so ExtVP_OS(likes|follows) is empty
    val stats = s2rdf.reductionStats
    assert(stats.get(("OS", "likes", "follows")).forall(_._1 == 0L))
  }

  test("SF threshold 0 disables ExtVP (plain VP), same results") {
    val vp = new S2Rdf(sfThreshold = 0.0)
    vp.load(triples)
    for (q <- Seq("star-3", "path-then-star", "snowflake").map(n => Battery.bgp.find(_.name == n).get)) {
      Oracle.assertEquivalent(vp.execute(q.query), ReferenceSql.toSql(q.query), "triples" -> triples)
    }
  }

  test("generated SQL uses ExtVP views when the threshold admits them") {
    val permissive = new S2Rdf(sfThreshold = 1.0)
    permissive.load(triples)
    val q = Parser.parse("SELECT ?a ?b ?n WHERE { ?a follows ?b . ?b name ?n }")
    val sql = permissive.groupToSql(q.groups.head.patterns)
    assert(sql.contains("extvp_"), sql)
  }

  test("generated SQL uses plain VP views when the threshold forbids them") {
    val strict = new S2Rdf(sfThreshold = 0.0)
    strict.load(triples)
    val q = Parser.parse("SELECT ?a ?b ?n WHERE { ?a follows ?b . ?b name ?n }")
    val sql = strict.groupToSql(q.groups.head.patterns)
    assert(!sql.contains("extvp_") && sql.contains("vp_"), sql)
  }

  test("join order puts patterns with more constants first") {
    val q = Parser.parse("SELECT ?p ?n WHERE { ?p name ?n . ?p livesIn c3 }")
    val sql = s2rdf.groupToSql(q.groups.head.patterns)
    // livesIn pattern has 2 constants (predicate + object) vs name's 1
    assert(sql.indexOf("livesIn") < sql.indexOf("name"), sql)
  }
}
