package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.sparql.{Const, FilterExpr, FilterEval, Query, TriplePattern, Var}

/** RDD-level solution-binding algebra shared by the RDD-based engines
  * (SPARQLGX, HAQWA, SparkRDF, and the GraphX engines' assembly phase).
  *
  * A binding is a Map from variable name to value. Bag semantics —
  * duplicates are preserved, exactly as SPARQL (and the oracle) require.
  */
object Bindings {

  type Binding = Map[String, String]

  /** Match one triple pattern against raw triples. Handles constants in any
    * position and repeated variables within the pattern (enforced equal).
    */
  def matchPattern(triples: RDD[(String, String, String)], tp: TriplePattern): RDD[Binding] =
    triples.flatMap { case (s, p, o) => bindTriple(tp, s, p, o) }

  /** Bind a single triple to a pattern, if it matches. */
  def bindTriple(tp: TriplePattern, s: String, p: String, o: String): Option[Binding] = {
    var b = Map.empty[String, String]
    def unify(t: repro.sparql.Term, v: String): Boolean = t match {
      case Const(c) => c == v
      case Var(n) =>
        b.get(n) match {
          case Some(prev) => prev == v
          case None       => b += (n -> v); true
        }
    }
    if (unify(tp.s, s) && unify(tp.p, p) && unify(tp.o, o)) Some(b) else None
  }

  /** Natural join on the given key variables; cartesian when keys is empty. */
  def joinOn(l: RDD[Binding], r: RDD[Binding], keys: Seq[String]): RDD[Binding] =
    if (keys.isEmpty) l.cartesian(r).map { case (a, b) => a ++ b }
    else
      l.keyBy(b => keys.map(b))
        .join(r.keyBy(b => keys.map(b)))
        .map { case (_, (a, b)) => a ++ b }

  /** Natural join, inferring shared variables from the two sides' schemas. */
  def join(l: RDD[Binding], lVars: Set[String], r: RDD[Binding], rVars: Set[String]): RDD[Binding] =
    joinOn(l, r, (lVars intersect rVars).toSeq.sorted)

  /** SPARQL OPTIONAL: keep every left binding, extend where the right side
    * matches on the shared variables.
    */
  def leftJoin(l: RDD[Binding], r: RDD[Binding], keys: Seq[String]): RDD[Binding] = {
    require(keys.nonEmpty, "OPTIONAL without shared variables is unsupported")
    l.keyBy(b => keys.map(b))
      .leftOuterJoin(r.keyBy(b => keys.map(b)))
      .map {
        case (_, (a, Some(b))) => a ++ b
        case (_, (a, None))    => a
      }
  }

  /** Driver/executor-local join of two small binding tables on their shared
    * variables — used by the GraphX engines for per-vertex table merges.
    */
  def mergeLocal(a: Seq[Binding], b: Seq[Binding]): Seq[Binding] =
    for {
      x <- a; y <- b
      if y.forall { case (k, v) => x.get(k).forall(_ == v) }
    } yield x ++ y

  def applyFilters(rdd: RDD[Binding], filters: Seq[FilterExpr]): RDD[Binding] =
    if (filters.isEmpty) rdd
    else rdd.filter(b => filters.forall(f => FilterEval.eval(f, b.get)))

  /** Join a sequence of pattern-binding RDDs left-to-right, keying each join
    * on the variables shared with everything joined so far (cartesian when
    * none — SPARQLGX's "cross product" case).
    */
  def joinAll(parts: Seq[(RDD[Binding], Set[String])]): RDD[Binding] = {
    require(parts.nonEmpty)
    parts.tail.foldLeft(parts.head) { case ((acc, accVars), (next, nextVars)) =>
      (join(acc, accVars, next, nextVars), accVars ++ nextVars)
    }._1
  }

  /** BGP+ evaluation over RDD bindings: per UNION branch, the required BGP,
    * then its filters, then each OPTIONAL as a left join on the variables
    * bound so far; then the union, `Results.toDf` and the modifiers.
    */
  def evaluate(q: Query, matchBgp: Vector[TriplePattern] => RDD[Binding]): DataFrame = {
    val branches = q.groups.map { g =>
      var acc = applyFilters(matchBgp(g.patterns), g.filters)
      var accVars = g.requiredVars.toSet
      for (opt <- g.optionals) {
        val optVars = opt.flatMap(_.vars).toSet
        acc = leftJoin(acc, matchBgp(opt), (accVars intersect optVars).toSeq.sorted)
        accVars ++= optVars
      }
      acc
    }
    val df = Results.toDf(SparkSession.active, branches.reduce(_ union _), q.resultVars)
    Results.applyModifiers(df, q)
  }
}
