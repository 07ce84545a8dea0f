package repro.engines.sparqlgx

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.core.Bindings.Binding
import repro.sparql._

/** SPARQLGX [13] (Graux et al., ISWC 2016), as described by the survey:
  *
  *   - storage: *vertical partitioning* — "a triple (s p o) is stored in a
  *     file named p whose content keeps only s and o entries"; here, one
  *     cached (s,o) RDD per predicate. Queries with bounded predicates read
  *     only their predicate partitions (reduced memory footprint).
  *   - query processing: "parsing one by one the triple patterns and
  *     mapping them to Spark's RDD API"; consecutive sub-query results are
  *     joined via `keyBy` on a common variable, or the *cross product* is
  *     computed when no common variable exists.
  *   - optimization: data statistics (counts of distinct subjects,
  *     predicates, objects) reorder the join sequence.
  *   - fragment: BGP plus DISTINCT, SORT, UNION, OPTIONAL, FILTER (BGP+).
  */
final class SparqlGx(reorderJoins: Boolean = true) extends RddBgpEngine {

  val info: EngineInfo = EngineInfo(
    citation = "[13]",
    name = "SPARQLGX",
    dataModel = "Triple",
    abstractions = Seq("RDD"),
    queryProcessing = "RDD API",
    optimization = true,
    partitioning = "Vertical",
    sparqlFragment = "BGP+",
  )

  private var vertical: Map[String, RDD[(String, String)]] = Map.empty
  private var allTriples: RDD[(String, String, String)] = _
  private var stats: Stats = _

  override def load(triples: DataFrame): Unit = {
    allTriples = triples.rdd
      .map(r => (r.getString(0), r.getString(1), r.getString(2)))
      .persist(StorageLevel.MEMORY_AND_DISK)
    val predicates = triples.select("p").distinct().collect().map(_.getString(0))
    vertical = predicates.map { p =>
      p -> allTriples
        .filter(_._2 == p)
        .map(t => (t._1, t._3))
        .persist(StorageLevel.MEMORY_AND_DISK)
    }.toMap
    stats = Stats.compute(triples)
  }

  /** One triple pattern → bindings, reading only the pattern's vertical
    * partition when the predicate is bounded.
    */
  private def matchOne(tp: TriplePattern): RDD[Binding] = tp.predConst match {
    case Some(p) =>
      vertical.get(p) match {
        case None => allTriples.sparkContext.emptyRDD[Binding]
        case Some(so) =>
          so.flatMap { case (s, o) =>
            Bindings.bindTriple(TriplePattern(tp.s, Const(p), tp.o), s, p, o)
          }
      }
    case None => Bindings.matchPattern(allTriples, tp)
  }

  protected def matchBgp(ps: Vector[TriplePattern]): RDD[Binding] = {
    val ordered = if (reorderJoins) stats.reorder(ps) else ps
    Bindings.joinAll(ordered.map(tp => (matchOne(tp), tp.varSet)))
  }
}
