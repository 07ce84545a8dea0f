package repro.engines.gframes

import org.apache.spark.sql.DataFrame
import repro.core._
import repro.graphframes.GraphFrameLite
import repro.sparql._

/** The GraphFrames engine [4] (Bahrami, Gulati, Abulaish, WI 2017):
  * "Efficient processing of SPARQL queries over GraphFrames", per the
  * survey:
  *
  *   - the dataset splits into a nodelist and an edgelist forming an
  *     unweighted labeled graph (our [[GraphFrameLite]]);
  *   - SPARQL queries become query graphs, **optimized** by (a) sorting
  *     sub-queries in non-descending order of *predicate frequency* and
  *     (b) **local search space pruning** — all triples whose predicates
  *     do not occur in the BGP are discarded, and a new, much smaller
  *     graph is built from the temporary dataset;
  *   - query processing performs subgraph matching of the optimized query
  *     over the pruned graph.
  *
  * Fragment: BGP (Table II).
  */
final class GFramesEngine extends DataFrameBgpEngine {

  val info: EngineInfo = EngineInfo(
    citation = "[4]",
    name = "GraphFrames engine",
    dataModel = "Graph",
    abstractions = Seq("GraphFrames"),
    queryProcessing = "Subgraph Matching",
    optimization = true,
    partitioning = "Default",
    sparqlFragment = "BGP",
  )

  private var gf: GraphFrameLite = _
  private var predFreq: Map[String, Long] = Map.empty

  override def load(triples: DataFrame): Unit = {
    gf = GraphFrameLite.fromTriples(triples.cache())
    predFreq = triples.groupBy("p").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
  }

  protected def matchBgp(ps: Vector[TriplePattern]): DataFrame = {
    // optimization 1: non-descending predicate frequency (rarest first)
    val ordered = ps.sortBy(tp =>
      tp.predConst.map(p => predFreq.getOrElse(p, 0L)).getOrElse(predFreq.values.sum))
    // optimization 2: local search space pruning (only when every predicate
    // is bounded — otherwise every triple may match)
    val target =
      if (ps.forall(_.p.isVar == false))
        gf.pruneTo(ps.flatMap(_.predConst).toSet)
      else gf
    target.find(ordered)
  }
}
