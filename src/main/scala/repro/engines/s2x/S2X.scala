package repro.engines.s2x

import org.apache.spark.graphx._
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.core.Bindings.Binding
import repro.engines.graph.RdfGraph
import repro.sparql._

/** S2X [23] (Schätzle et al., Big-O(Q) 2015): "graph-parallel querying of
  * RDF with GraphX", per the survey:
  *
  *   - RDF as a property graph; every vertex stores the query variables it
  *     is a *match candidate* for;
  *   - first all triple patterns of the BGP are matched independently, then
  *     adjacent vertices **exchange messages to validate candidates** until
  *     nothing changes (local match / remote match validation rules;
  *     invalid candidates are discarded each superstep);
  *   - the final output is assembled from the surviving sub-matches with
  *     Spark's data-parallel API, which also implements the BGP+ operators
  *     (OPTIONAL, FILTER, ORDER BY, PROJECTION, LIMIT, OFFSET).
  */
final class S2X extends RddBgpEngine {

  val info: EngineInfo = EngineInfo(
    citation = "[23]",
    name = "S2X",
    dataModel = "Graph",
    abstractions = Seq("GraphX"),
    queryProcessing = "Graph Iterations",
    optimization = false,
    partitioning = "Default",
    sparqlFragment = "BGP+",
  )

  /** Candidate position: (pattern index, 's' or 'o'). */
  private type Pos = (Int, Char)

  import S2X.{MaxIterations, edgeMatches}

  private var rdf: RdfGraph = _

  override def load(triples: DataFrame): Unit = { rdf = RdfGraph.build(triples) }

  /** Iterative candidate validation + final assembly for one BGP. */
  protected def matchBgp(tps: Vector[TriplePattern]): RDD[Binding] = {
    // query-level variable→positions map, for the local-consistency rule:
    // a vertex is a candidate for variable x only if it is a candidate at
    // *every* position where x occurs
    val varPositions: Map[String, Set[Pos]] = {
      val m = scala.collection.mutable.Map.empty[String, Set[Pos]]
      tps.zipWithIndex.foreach { case (tp, i) =>
        tp.s.varName.foreach(v => m(v) = m.getOrElse(v, Set.empty) + ((i, 's')))
        tp.o.varName.foreach(v => m(v) = m.getOrElse(v, Set.empty) + ((i, 'o')))
      }
      m.toMap
    }
    val posToVar: Map[Pos, String] = varPositions.flatMap { case (v, ps) => ps.map(_ -> v) }

    def consistent(cand: Set[Pos]): Set[Pos] = {
      val keptVars = varPositions.collect {
        case (v, ps) if ps.subsetOf(cand) => v
      }.toSet
      cand.filter(p => keptVars.contains(posToVar(p)))
    }

    // the data graph with each vertex's candidate set attached. The new
    // graph's vertex and edge RDDs come back marked as cached; they are
    // cheap to recompute from the cached data graph and are never reused
    // after the query, so the marks are dropped (while no triplet view has
    // been shipped yet, unpersist reaches both).
    def withCandidates(c: RDD[(VertexId, Set[Pos])]): Graph[(String, Set[Pos]), String] =
      rdf.graph.outerJoinVertices(c)((_, value, cs) => (value, cs.getOrElse(Set.empty[Pos])))
        .unpersist(blocking = false)

    // initial match candidates from an independent scan of all patterns
    var cand: RDD[(VertexId, Set[Pos])] = rdf.graph.triplets
      .flatMap { t =>
        tps.zipWithIndex.flatMap { case (tp, i) =>
          if (!edgeMatches(tp, t.srcAttr, t.attr, t.dstAttr)) Seq.empty
          else
            tp.s.varName.map(_ => (t.srcId, Set[Pos]((i, 's')))).toSeq ++
              tp.o.varName.map(_ => (t.dstId, Set[Pos]((i, 'o')))).toSeq
        }
      }
      .reduceByKey(_ ++ _)
      .mapValues(consistent)
      .filter(_._2.nonEmpty)
      .persist(StorageLevel.MEMORY_AND_DISK)

    var candSize = cand.map(_._2.size.toLong).fold(0L)(_ + _)
    var iter = 0
    var changed = true
    while (changed && iter < MaxIterations) {
      val g = withCandidates(cand)
      // a candidate position survives only if some incident edge supports
      // it with a still-candidate remote end (S2X's validation rule)
      val supported = g.aggregateMessages[Set[Pos]](
        ctx => {
          val (sVal, sCand) = ctx.srcAttr
          val (oVal, oCand) = ctx.dstAttr
          tps.zipWithIndex.foreach { case (tp, i) =>
            if (edgeMatches(tp, sVal, ctx.attr, oVal)) {
              val objOk = tp.o match {
                case Var(_)   => oCand.contains((i, 'o'))
                case Const(_) => true
              }
              val subOk = tp.s match {
                case Var(_)   => sCand.contains((i, 's'))
                case Const(_) => true
              }
              if (tp.s.isVar && objOk && sCand.contains((i, 's'))) ctx.sendToSrc(Set((i, 's')))
              if (tp.o.isVar && subOk && oCand.contains((i, 'o'))) ctx.sendToDst(Set((i, 'o')))
            }
          }
        },
        _ ++ _,
      )
      val next = cand
        .join(supported)
        .mapValues { case (old, sup) => consistent(old intersect sup) }
        .filter(_._2.nonEmpty)
        .persist(StorageLevel.MEMORY_AND_DISK)
      val nextSize = next.map(_._2.size.toLong).fold(0L)(_ + _)
      // superseded now that next is materialized (aggregateMessages marked
      // g's vertices as cached again)
      cand.unpersist(blocking = false)
      g.unpersist(blocking = false)
      changed = nextSize != candSize
      cand = next
      candSize = nextSize
      iter += 1
    }

    // assembly: per pattern, the surviving edge matches, joined data-parallel
    val g = withCandidates(cand)
    val parts: Seq[(RDD[Binding], Set[String])] = tps.zipWithIndex.map { case (tp, i) =>
      val bindings = g.triplets.flatMap { t =>
        val (sVal, sCand) = t.srcAttr
        val (oVal, oCand) = t.dstAttr
        val sOk = tp.s match { case Var(_) => sCand.contains((i, 's')); case _ => true }
        val oOk = tp.o match { case Var(_) => oCand.contains((i, 'o')); case _ => true }
        if (sOk && oOk) Bindings.bindTriple(tp, sVal, t.attr, oVal) else None
      }
      (bindings, tp.varSet)
    }
    Bindings.joinAll(parts)
  }
}

/** Executor-side helper on the companion: Spark closures must not capture
  * the engine instance (it holds a non-serializable Graph).
  */
object S2X {
  private val MaxIterations = 30

  def edgeMatches(tp: TriplePattern, sVal: String, p: String, oVal: String): Boolean =
    (tp.p match { case Const(c) => c == p; case _ => true }) &&
      (tp.s match { case Const(c) => c == sVal; case _ => true }) &&
      (tp.o match { case Const(c) => c == oVal; case _ => true })
}
