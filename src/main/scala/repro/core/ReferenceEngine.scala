package repro.core

import org.apache.spark.sql.DataFrame
import repro.sparql.{Query, ReferenceSql}

/** Baseline engine: run the oracle's SQL directly on Spark SQL over a raw
  * `triples(s,p,o)` temp view. Not one of the surveyed systems — it is the
  * semantic ground truth the assessment benches compare engines against,
  * and a stand-in for "SPARQL naively translated to SQL over a triple
  * table" (the approach the survey's Section III contrasts the systems
  * with).
  */
final class ReferenceEngine extends SparqlEngine {

  val info: EngineInfo = EngineInfo(
    citation = "-",
    name = "Reference",
    dataModel = "Triple",
    abstractions = Seq("Spark SQL"),
    queryProcessing = "Spark SQL",
    optimization = false,
    partitioning = "Default",
    sparqlFragment = "BGP+",
  )

  private var triples: DataFrame = _
  private val viewName = s"${viewPrefix}triples"

  override def load(df: DataFrame): Unit = {
    triples = df.cache()
    triples.createOrReplaceTempView(viewName)
    triples.count() // materialize
  }

  protected def evaluate(q: Query): DataFrame =
    triples.sparkSession.sql(ReferenceSql.toSql(q, viewName))
}
