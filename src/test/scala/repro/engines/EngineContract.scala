package repro.engines

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.core.SparqlEngine
import repro.harness.Battery
import repro.rdf.RdfSynth
import repro.sparql.ReferenceSql

/** The shared correctness contract: every engine must answer every battery
  * query it supports with exactly the rows the DuckDB oracle computes from
  * [[ReferenceSql]]. Engines whose SPARQL fragment (paper Table II)
  * excludes a query get that test *cancelled*, mirroring the survey's
  * point that fragment support varies per system.
  */
abstract class EngineContract(engineName: String, mkEngine: () => SparqlEngine)
    extends SparkSpec {

  /** SF for the contract dataset — small enough for ~26 oracle diffs. */
  protected def contractSf: Double = 0.005

  protected lazy val triples: DataFrame = {
    val t = RdfSynth.social(spark, sf = contractSf).cache()
    t.count()
    t
  }

  protected lazy val engine: SparqlEngine = {
    val e = mkEngine()
    e.load(triples)
    e
  }

  test(s"$engineName reports metadata consistent with the paper's tables") {
    val i = engine.info
    assert(Set("Triple", "Graph").contains(i.dataModel))
    assert(i.abstractions.nonEmpty)
    assert(Set("BGP", "BGP+").contains(i.sparqlFragment))
  }

  test(s"$engineName rejects every battery query outside its fragment, naming itself") {
    for (q <- Battery.all if !engine.supports(q.query)) {
      val e = intercept[IllegalArgumentException](engine.execute(q.query))
      assert(e.getMessage.contains(engine.info.name), q.name)
    }
  }

  for (q <- Battery.all) {
    test(s"$engineName answers '${q.name}' exactly as the oracle") {
      assume(engine.supports(q.query), s"${q.name} outside ${engineName}'s fragment")
      Oracle.assertEquivalent(
        engine.execute(q.query),
        ReferenceSql.toSql(q.query),
        "triples" -> triples,
      )
    }
  }
}
