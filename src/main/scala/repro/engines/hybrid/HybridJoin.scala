package repro.engines.hybrid

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{broadcast, col}
import repro.core._
import repro.sparql._

/** The join-strategy study [21] (Naacke, Amann, Curé, GRADES 2017):
  * "SPARQL graph pattern processing with Apache Spark", per the survey:
  *
  *   - data hash-partitioned on the **subject** value;
  *   - one SPARQL→API translation per Spark abstraction:
  *     `SparkSql`  — Catalyst plans the whole BGP (the survey notes the
  *                   original's naive translation degenerated to cartesian
  *                   products for multi-pattern queries);
  *     `Partitioned` — each join becomes a partitioned (shuffle sort-merge)
  *                   join in input order, the RDD approach's plan;
  *     `Broadcast` — DataFrame cost-based broadcasting of small inputs;
  *     `Hybrid`    — the paper's contribution: a dynamic greedy optimizer
  *                   on data statistics that mixes broadcast joins (small
  *                   inputs) with partitioned joins (large-large), starting
  *                   from the most selective pattern.
  *
  * Fragment: BGP (Table II).
  */
object HybridJoin {
  sealed trait Strategy { def label: String }
  case object SparkSql    extends Strategy { val label = "spark-sql"   }
  case object Partitioned extends Strategy { val label = "partitioned" }
  case object Broadcast   extends Strategy { val label = "broadcast"   }
  case object Hybrid      extends Strategy { val label = "hybrid"      }
  val AllStrategies: Seq[Strategy] = Seq(SparkSql, Partitioned, Broadcast, Hybrid)

  /** Largest pattern cardinality that is broadcast rather than shuffled. */
  private val BroadcastThreshold = 10000L
}

final class HybridJoin(strategy: HybridJoin.Strategy = HybridJoin.Hybrid) extends SparqlEngine {
  import HybridJoin._

  val info: EngineInfo = EngineInfo(
    citation = "[21]",
    name = "Hybrid join study",
    dataModel = "Triple",
    abstractions = Seq("RDD", "DataFrames"),
    queryProcessing = "Hybrid",
    optimization = true,
    partitioning = "Hash-sbj",
    sparqlFragment = "BGP",
  )

  private var triples: DataFrame = _
  private val viewName = s"${viewPrefix}triples"

  override def load(df: DataFrame): Unit = {
    triples = df.repartition(col("s")).cache()
    triples.createOrReplaceTempView(viewName)
    triples.count()
  }

  protected def evaluate(q: Query): DataFrame = PatternDf.evaluate(q, matchBgp(_, strategy))

  def executeWith(q: Query, s: Strategy): DataFrame =
    checked(q)(PatternDf.evaluate(q, matchBgp(_, s)))

  private def matchBgp(ps: Vector[TriplePattern], s: Strategy): DataFrame = s match {
    case SparkSql =>
      val bgp = Query(Vector.empty, distinct = false, Vector(BasicGroup(ps)))
      triples.sparkSession.sql(ReferenceSql.toSql(bgp, viewName))
    case Partitioned =>
      // the RDD approach: joins "following the order specified by the
      // input logical query", each a partitioned (shuffle) join
      ps.map(tp => PatternDf.matchPattern(triples, tp))
        .reduceLeft((l, r) => PatternDf.joinBindings(l.hint("merge"), r))
    case Broadcast =>
      // the DataFrame approach: size-based preference for broadcast joins
      ps.map { tp =>
        val part = PatternDf.matchPattern(triples, tp).cache()
        (part, part.count())
      }.reduceLeft[(DataFrame, Long)] { case ((l, _), (r, rSize)) =>
        val joined =
          if (rSize <= BroadcastThreshold) PatternDf.joinBindings(l, broadcast(r))
          else PatternDf.joinBindings(l, r)
        (joined, rSize)
      }._1
    case Hybrid => hybridPlan(ps)
  }

  /** The hybrid greedy optimizer: start from the most selective pattern;
    * at each step pick the connected pattern with the smallest cardinality
    * and broadcast it if it is under the threshold, else do a partitioned
    * join.
    */
  private def hybridPlan(ps: Seq[TriplePattern]): DataFrame = {
    val parts = ps.map(tp => (tp, PatternDf.matchPattern(triples, tp).cache()))
    val sized = parts.map { case (tp, df) => (tp, df, df.count()) }
    val remaining = scala.collection.mutable.ArrayBuffer(sized: _*)
    val first = remaining.minBy(_._3)
    remaining -= first
    var acc = first._2
    var accVars = first._1.varSet
    while (remaining.nonEmpty) {
      val connected = remaining.filter(_._1.varSet.intersect(accVars).nonEmpty)
      val pool = if (connected.nonEmpty) connected else remaining
      val next = pool.minBy(_._3)
      remaining -= next
      acc =
        if (next._3 <= BroadcastThreshold) PatternDf.joinBindings(acc, broadcast(next._2))
        else PatternDf.joinBindings(acc.hint("merge"), next._2)
      accVars ++= next._1.varSet
    }
    acc
  }
}
