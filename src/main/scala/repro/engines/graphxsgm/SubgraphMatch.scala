package repro.engines.graphxsgm

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import repro.core._
import repro.core.Bindings.Binding
import repro.engines.graph.RdfGraph
import repro.sparql._

/** The subgraph-matching-on-GraphX approach [16] (Kassaie, 2017:
  * "SPARQL over GraphX"), per the survey:
  *
  *   - each vertex carries a label (its subject/object value) and a
  *     **Match Track (MT) table** of variables and constants; edges carry
  *     the predicate as edge label;
  *   - the algorithm iterates over the BGP triples; matching is done with
  *     GraphX's `aggregateMessages` (its `sendMsg` maps the current BGP
  *     triple over all graph triples, `mergeMsg` reduces the messages at
  *     their target vertex); `joinVertices`-style merging reconciles the
  *     vertex's old MT with the arriving bindings;
  *   - after all BGP triples are evaluated, the **final MT tables of the
  *     end vertices are joined** to produce the query answer.
  */
final class SubgraphMatch extends RddBgpEngine {

  val info: EngineInfo = EngineInfo(
    citation = "[16]",
    name = "SPARQL over GraphX",
    dataModel = "Graph",
    abstractions = Seq("GraphX"),
    queryProcessing = "Graph Iterations",
    optimization = true,
    partitioning = "Default",
    sparqlFragment = "BGP",
  )

  private var rdf: RdfGraph = _

  override def load(triples: DataFrame): Unit = { rdf = RdfGraph.build(triples) }

  /** Connected pattern order (the engine's optimization: never introduce a
    * disconnected pattern while a connected one is available).
    */
  private def connectedOrder(ps: Vector[TriplePattern]): Vector[TriplePattern] = {
    val remaining = scala.collection.mutable.ArrayBuffer(ps: _*)
    val out = Vector.newBuilder[TriplePattern]
    var bound = Set.empty[String]
    while (remaining.nonEmpty) {
      val next = remaining
        .find(tp => bound.isEmpty || tp.varSet.intersect(bound).nonEmpty)
        .getOrElse(remaining.head)
      out += next
      bound ++= next.varSet
      remaining -= next
    }
    out.result()
  }

  protected def matchBgp(ps: Vector[TriplePattern]): RDD[Binding] = {
    val tps = connectedOrder(ps)

    // one aggregateMessages round per BGP triple: sendMsg matches the
    // pattern against every graph triple and ships the binding to the
    // subject vertex; mergeMsg concatenates
    val mtPerTp: Seq[RDD[(org.apache.spark.graphx.VertexId, Seq[Binding])]] =
      tps.map { tp =>
        rdf.graph.aggregateMessages[Seq[Binding]](
          ctx =>
            Bindings.bindTriple(tp, ctx.srcAttr, ctx.attr, ctx.dstAttr)
              .foreach(b => ctx.sendToSrc(Seq(b))),
          _ ++ _,
        )
      }

    // per-vertex MT accumulation: patterns anchored at the same subject
    // term merge their tables at that vertex (subject stars stay local)
    val bySubject: Map[Term, Seq[Int]] =
      tps.zipWithIndex.groupBy(_._1.s).view.mapValues(_.map(_._2)).toMap
    val groupTables: Seq[(RDD[Binding], Set[String])] =
      bySubject.toSeq.sortBy(_._2.min).map { case (_, idxs) =>
        val merged = idxs.map(mtPerTp)
          .reduce((l, r) => l.join(r).mapValues { case (a, b) => Bindings.mergeLocal(a, b) })
          .filter(_._2.nonEmpty)
        val vars = idxs.flatMap(i => tps(i).vars).toSet
        (merged.flatMap(_._2), vars)
      }

    // "join the final MT tables of the end vertices" for the answer
    Bindings.joinAll(groupTables)
  }
}
