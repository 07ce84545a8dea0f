package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.sparql.{Const, Query, SqlFilter, TriplePattern, Var}

/** DataFrame-level triple-pattern algebra shared by the DataFrame / SQL /
  * GraphFrames engines.
  */
object PatternDf {

  /** Evaluate a single triple pattern over a triples DataFrame (columns
    * s, p, o), producing one column per distinct variable of the pattern.
    */
  def matchPattern(triples: DataFrame, tp: TriplePattern): DataFrame = {
    var df = triples
    val positions = Seq(("s", tp.s), ("p", tp.p), ("o", tp.o))
    // constant restrictions
    positions.foreach {
      case (c, Const(v)) => df = df.where(col(c) === lit(v))
      case _             =>
    }
    // repeated-variable equality
    val varPos = positions.collect { case (c, Var(n)) => (n, c) }
    varPos.groupBy(_._1).values.filter(_.sizeIs > 1).foreach { dups =>
      dups.sliding(2).foreach {
        case Seq((_, c1), (_, c2)) => df = df.where(col(c1) === col(c2))
        case _                     =>
      }
    }
    val proj: Seq[Column] =
      varPos.distinctBy(_._1).map { case (n, c) => col(c).as(n) }
    df.select(proj: _*)
  }

  /** Natural join on shared columns; cross join when none are shared. */
  def joinBindings(l: DataFrame, r: DataFrame): DataFrame = {
    val shared = l.columns.toSeq intersect r.columns.toSeq
    if (shared.isEmpty) l.crossJoin(r) else l.join(r, shared, "inner")
  }

  /** OPTIONAL as a left outer join on the shared columns. */
  def leftJoinBindings(l: DataFrame, r: DataFrame): DataFrame = {
    val shared = l.columns.toSeq intersect r.columns.toSeq
    require(shared.nonEmpty, "OPTIONAL without shared variables is unsupported")
    l.join(r, shared, "left_outer")
  }

  /** BGP+ evaluation over DataFrames, in the same order as
    * [[Bindings.evaluate]]; FILTER becomes the SQL [[SqlFilter]] renders,
    * and a UNION branch that lacks a result variable gets a null column.
    */
  def evaluate(q: Query, matchBgp: Vector[TriplePattern] => DataFrame): DataFrame = {
    val branches = q.groups.map { g =>
      var df = matchBgp(g.patterns)
      g.filters.foreach(f => df = df.where(SqlFilter.toSql(f, v => s"`$v`")))
      g.optionals.foreach(opt => df = leftJoinBindings(df, matchBgp(opt)))
      df.select(q.resultVars.map(v => (if (df.columns.contains(v)) col(v) else lit(null)).as(v)): _*)
    }
    Results.applyModifiers(branches.reduce(_ unionAll _), q)
  }
}
