package repro.engines.s2rdf

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._
import repro.sparql._

/** S2RDF [24] (Schätzle et al., PVLDB 2016), as described by the survey:
  *
  *   - storage: **ExtVP** — an extended vertical partitioning. For every
  *     pair of predicates (p1, p2) and correlation SS (subject-subject),
  *     OS (object-subject), SO (subject-object), the semi-join reduction
  *     of VP_p1 against VP_p2 is precomputed; at query time a triple
  *     pattern reads the smallest applicable reduction instead of its full
  *     VP table, which shrinks join inputs (the paper's 10,000 → 10
  *     comparisons example).
  *   - a **selectivity factor** SF = |ExtVP| / |VP| with a threshold:
  *     "all ExtVP tables above this threshold are not considered" (they
  *     would not pay for their storage).
  *   - query processing: SPARQL → algebra → **Spark SQL** string (Jena ARQ
  *     in the original; our parser here), executed by Catalyst.
  *   - optimization: sub-queries with the most bound variables first; ties
  *     broken by smallest table size.
  *
  * Statistics (all pairwise semi-join sizes) are computed eagerly at load
  * in three aggregate jobs; table *contents* are materialized lazily and
  * memoized — a laptop-scale concession documented in DESIGN.md.
  */
final class S2Rdf(sfThreshold: Double = 0.75) extends DataFrameBgpEngine {

  val info: EngineInfo = EngineInfo(
    citation = "[24]",
    name = "S2RDF",
    dataModel = "Triple",
    abstractions = Seq("Spark SQL"),
    queryProcessing = "Spark SQL",
    optimization = true,
    partitioning = "Extended Vertical",
    sparqlFragment = "BGP+",
  )

  private var triples: DataFrame = _
  private val triplesView = s"${viewPrefix}triples"
  private var vpSizes: Map[String, Long] = Map.empty
  /** (corr, p1, p2) → |ExtVP_corr(p1|p2)| for all predicate pairs. */
  private var extSizes: Map[(String, String, String), Long] = Map.empty
  private val materialized = scala.collection.mutable.Map.empty[(String, String, String), String]

  private def sanitize(p: String): String = p.map(c => if (c.isLetterOrDigit) c else '_')

  override def load(df: DataFrame): Unit = {
    triples = df.cache()
    triples.createOrReplaceTempView(triplesView)
    vpSizes = triples.groupBy("p").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    vpSizes.keys.foreach { p =>
      triples.where(col("p") === p).select("s", "o")
        .createOrReplaceTempView(vpView(p))
    }
    // Pairwise semi-join statistics, one aggregate job per correlation.
    val t1 = triples.as("t1")
    val subj = triples.select(col("p") as "p2", col("s") as "k").distinct().as("t2")
    val obj  = triples.select(col("p") as "p2", col("o") as "k").distinct().as("t2")
    def sizes(joinKey: String, right: DataFrame): Map[(String, String), Long] =
      t1.join(right, col(s"t1.$joinKey") === col("t2.k") && col("t1.p") =!= col("t2.p2"))
        .groupBy(col("t1.p"), col("t2.p2")).count()
        .collect().map(r => (r.getString(0), r.getString(1)) -> r.getLong(2)).toMap
    extSizes =
      sizes("s", subj).map { case ((a, b), n) => ("SS", a, b) -> n } ++
      sizes("o", subj).map { case ((a, b), n) => ("OS", a, b) -> n } ++
      sizes("s", obj).map { case ((a, b), n) => ("SO", a, b) -> n }
  }

  private def vpView(p: String): String = s"${viewPrefix}vp_${sanitize(p)}"

  /** Lazily materialize ExtVP_corr(p1|p2) as a temp view; memoized. */
  private def extView(corr: String, p1: String, p2: String): String =
    materialized.getOrElseUpdate((corr, p1, p2), {
      val name = s"${viewPrefix}extvp_${corr.toLowerCase}_${sanitize(p1)}__${sanitize(p2)}"
      val left = triples.where(col("p") === p1).select("s", "o")
      val right = triples.where(col("p") === p2)
      val reduced = corr match {
        case "SS" => left.join(right.select(col("s") as "k").distinct(), left("s") === col("k"), "leftsemi")
        case "OS" => left.join(right.select(col("s") as "k").distinct(), left("o") === col("k"), "leftsemi")
        case "SO" => left.join(right.select(col("o") as "k").distinct(), left("s") === col("k"), "leftsemi")
      }
      reduced.cache().createOrReplaceTempView(name)
      name
    })

  /** Size of ExtVP if it exists, is a real reduction, and passes the SF
    * threshold; None otherwise.
    */
  def extSizeIfUseful(corr: String, p1: String, p2: String): Option[Long] =
    for {
      n <- extSizes.get((corr, p1, p2))
      vp <- vpSizes.get(p1)
      if vp > 0 && n.toDouble / vp <= sfThreshold
    } yield n

  /** Choose the table for one pattern given its group: the smallest
    * applicable ExtVP reduction, else the VP table, else raw triples when
    * the predicate is a variable. Returns (view, size, hasPredicateColumn).
    */
  private def tableFor(tp: TriplePattern, group: Seq[TriplePattern]): (String, Long, Boolean) =
    tp.predConst match {
      case None => (triplesView, vpSizes.values.sum, true)
      case Some(p1) =>
        val candidates = for {
          other <- group if other != tp
          p2 <- other.predConst.toSeq
          (corr, shared) <- Seq(
            ("SS", tp.s.isVar && tp.s == other.s),
            ("OS", tp.o.isVar && tp.o == other.s),
            ("SO", tp.s.isVar && tp.s == other.o),
          ) if shared
          n <- extSizeIfUseful(corr, p1, p2).toSeq
        } yield (corr, p2, n)
        candidates.sortBy(_._3).headOption match {
          case Some((corr, p2, n)) => (extView(corr, p1, p2), n, false)
          case None                => (vpView(p1), vpSizes.getOrElse(p1, 0L), false)
        }
    }

  /** The survey's join-order rule: most bound variables (i.e. constants)
    * first; ties by ascending table size.
    */
  private def ordered(ps: Seq[TriplePattern]): Seq[(TriplePattern, String, Boolean)] =
    ps.map { tp =>
      val (view, size, hasP) = tableFor(tp, ps)
      (tp, view, size, hasP)
    }.sortBy { case (tp, _, size, _) => (-(tp.terms.count(!_.isVar)), size) }
      .map { case (tp, view, _, hasP) => (tp, view, hasP) }

  /** Compile one BGP to a SQL string. Public for white-box tests. */
  def groupToSql(ps: Seq[TriplePattern]): String = {
    val plan = ordered(ps)
    val colOf = scala.collection.mutable.LinkedHashMap.empty[String, String]
    val conds = Vector.newBuilder[String]
    val from = new StringBuilder
    plan.zipWithIndex.foreach { case ((tp, view, hasP), i) =>
      val a = s"q$i"
      val joinConds = Vector.newBuilder[String]
      val positions =
        if (hasP) Seq(("s", tp.s), ("p", tp.p), ("o", tp.o))
        else Seq(("s", tp.s), ("o", tp.o))
      positions.foreach {
        case (c, Var(v)) =>
          colOf.get(v) match {
            case Some(prev) => joinConds += s"$prev = $a.$c"
            case None       => colOf(v) = s"$a.$c"
          }
        case (c, Const(v)) => joinConds += s"$a.$c = '${v.replace("'", "''")}'"
      }
      if (i == 0) {
        from ++= s"$view $a"
        joinConds.result().foreach(conds += _)
      } else {
        val jc = joinConds.result()
        if (jc.isEmpty) from ++= s" CROSS JOIN $view $a"
        else from ++= s" JOIN $view $a ON ${jc.mkString(" AND ")}"
      }
    }
    val where = conds.result() match {
      case Vector() => ""
      case cs       => s" WHERE ${cs.mkString(" AND ")}"
    }
    val proj = colOf.map { case (v, c) => s"$c AS $v" }.mkString(", ")
    s"SELECT $proj FROM ${from.toString}$where"
  }

  protected def matchBgp(ps: Vector[TriplePattern]): DataFrame = triples.sparkSession.sql(groupToSql(ps))

  /** Exposed for the ExtVP bench: (corr,p1,p2) → (extSize, vpSize). */
  def reductionStats: Map[(String, String, String), (Long, Long)] =
    extSizes.map { case ((c, p1, p2), n) => (c, p1, p2) -> (n, vpSizes.getOrElse(p1, 0L)) }
}
