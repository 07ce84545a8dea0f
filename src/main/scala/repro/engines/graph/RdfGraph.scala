package repro.engines.graph

import org.apache.spark.graphx.{Edge, Graph}
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel

/** RDF data "represented as a directed labeled graph in which the triple
  * (s hasProperty p) is an edge labeled hasProperty from node s to node p"
  * — the paper's Graph Model, materialized as a GraphX property graph:
  * vertex attribute = the subject/object URI or literal, edge attribute =
  * the predicate. Shared by the three GraphX engines.
  */
final case class RdfGraph(graph: Graph[String, String])

object RdfGraph {

  /** Vertex ids are assigned deterministically by sorted value. The
    * value↔id maps live on the driver (broadcast where needed) — fine at
    * the survey's data scales here; a cluster deployment would keep them
    * distributed.
    */
  def build(triples: DataFrame): RdfGraph = {
    val spark = triples.sparkSession
    import spark.implicits._
    val values = triples.select($"s").union(triples.select($"o"))
      .distinct().as[String].rdd
      .sortBy(identity)
      .zipWithIndex()
      .collectAsMap().toMap
    val bc = spark.sparkContext.broadcast(values)
    val vertices = spark.sparkContext
      .parallelize(values.toSeq.map { case (v, id) => (id, v) })
    val edges = triples.rdd.map { r =>
      val ids = bc.value
      Edge(ids(r.getString(0)), ids(r.getString(2)), r.getString(1))
    }
    val graph = Graph(vertices, edges, defaultVertexAttr = null.asInstanceOf[String],
      edgeStorageLevel = StorageLevel.MEMORY_AND_DISK,
      vertexStorageLevel = StorageLevel.MEMORY_AND_DISK)
    RdfGraph(graph)
  }
}
