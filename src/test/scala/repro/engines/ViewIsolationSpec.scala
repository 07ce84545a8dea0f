package repro.engines

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.core.{ReferenceEngine, SparqlEngine}
import repro.engines.hybrid.HybridJoin
import repro.engines.s2rdf.S2Rdf
import repro.harness.Battery
import repro.rdf.RdfSynth
import repro.sparql.ReferenceSql

/** Temp views are global to a SparkSession: an engine that queries views
  * must keep answering over its own data after a second instance of the
  * same engine loads different data.
  */
class ViewIsolationSpec extends SparkSpec {

  private def social(sf: Double): DataFrame = {
    val t = RdfSynth.social(spark, sf).cache()
    t.count()
    t
  }
  private lazy val mine = social(0.005)
  private lazy val other = social(0.002)
  private val star3 = Battery.bgp.find(_.name == "star-3").get.query

  private val engines: Seq[(String, () => SparqlEngine)] = Seq(
    "Reference" -> (() => new ReferenceEngine()),
    "S2RDF" -> (() => new S2Rdf()),
    "HybridJoin spark-sql" -> (() => new HybridJoin(HybridJoin.SparkSql)),
  )

  for ((name, mk) <- engines) {
    test(s"$name keeps its own data after a second instance loads other data") {
      val a = mk()
      a.load(mine)
      mk().load(other)
      Oracle.assertEquivalent(a.execute(star3), ReferenceSql.toSql(star3), "triples" -> mine)
    }
  }
}
