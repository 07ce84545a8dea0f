package repro.engines.sparkql

import org.apache.spark.graphx._
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.core.Bindings.Binding
import repro.sparql._

/** Spar(k)ql [12] (Gombos, Rácz, Kiss, FiCloud WS 2016): SPARQL evaluation
  * on Spark GraphX via vertex programs, per the survey:
  *
  *   - node model: **object properties are graph edges; data properties
  *     are stored inside node properties**; `rdf:type`, although an object
  *     property, is kept in the node properties too because of its
  *     popularity (here it lands there automatically: class names never
  *     occur as subjects, which is this engine's data-driven criterion);
  *   - sub-results are stored in **tables at each node**; a node receives
  *     messages from its neighbours and combines them with its stored
  *     information (Map phase keyed by query variables, data tables as
  *     values);
  *   - the query plan is a tree built by **breadth-first search over the
  *     object properties**; execution traverses the plan **bottom-up**,
  *     at each node iterating through the edges to find matches.
  *
  * Consequently only tree-shaped BGPs with constant predicates are
  * supported (fragment "BGP" in Table II).
  */
final class SparKql extends RddBgpEngine {
  import SparKql.extend

  val info: EngineInfo = EngineInfo(
    citation = "[12]",
    name = "Spar(k)ql",
    dataModel = "Graph",
    abstractions = Seq("GraphX"),
    queryProcessing = "Graph Iterations",
    optimization = true,
    partitioning = "Default",
    sparqlFragment = "BGP",
  )

  private var dataProps: Set[String] = _
  /** Graph over object-property triples; vertex attr = (value, node props). */
  private var graph: Graph[(String, Map[String, Seq[String]]), String] = _

  override def load(triples: DataFrame): Unit = {
    val spark = triples.sparkSession
    import spark.implicits._
    // data property := predicate whose objects never occur as subjects
    val subjDf = triples.select($"s").distinct()
    val resourcePreds = triples
      .join(subjDf.withColumnRenamed("s", "subj"), triples("o") === $"subj", "leftsemi")
      .select("p").distinct().as[String].collect().toSet
    val allPreds = triples.select("p").distinct().as[String].collect().toSet
    dataProps = allPreds -- resourcePreds

    val dataTriples = triples.where($"p".isin(dataProps.toSeq: _*))
    val objTriples = triples.where(!$"p".isin(dataProps.toSeq: _*))

    val nodeProps: RDD[(String, Map[String, Seq[String]])] = dataTriples.rdd
      .map(r => (r.getString(0), (r.getString(1), r.getString(2))))
      .groupByKey()
      .mapValues(_.toSeq.groupMap(_._1)(_._2))

    val values = triples.select($"s").union(objTriples.select($"o"))
      .distinct().as[String].rdd.sortBy(identity).zipWithIndex().collectAsMap().toMap
    val bc = spark.sparkContext.broadcast(values)
    val vertices = spark.sparkContext
      .parallelize(values.toSeq.map { case (v, id) => (id, v) })
      .leftOuterJoin(
        nodeProps.map { case (v, props) => (bc.value(v), props) })
      .map { case (id, (v, props)) => (id, (v, props.getOrElse(Map.empty[String, Seq[String]]))) }
    val edges = objTriples.rdd.map(r =>
      Edge(bc.value(r.getString(0)), bc.value(r.getString(2)), r.getString(1)))
    graph = Graph(vertices, edges,
      defaultVertexAttr = null.asInstanceOf[(String, Map[String, Seq[String]])],
      edgeStorageLevel = StorageLevel.MEMORY_AND_DISK,
      vertexStorageLevel = StorageLevel.MEMORY_AND_DISK)
    graph.triplets.count()
  }

  // ---- query plan (BFS tree over object-property patterns) -----------------
  import SparKql.{Plan, TreeNode}

  private def plan(ps: Vector[TriplePattern]): Option[Plan] = {
    if (ps.exists(_.p.isVar) || dataProps == null) return None
    val (dataTps, objTps) = ps.partition(tp => dataProps.contains(tp.predConst.get))
    val dataByTerm = dataTps.groupBy(_.s: Term)
    if (dataTps.exists(tp => tp.o.isVar && tp.o == tp.s)) return None

    if (objTps.isEmpty) {
      // a single star over node properties
      if (dataByTerm.sizeIs != 1) return None
      val term = dataByTerm.keys.head
      return Some(Plan(TreeNode(term, Seq.empty), dataByTerm))
    }
    // build the undirected term graph and check it is a tree
    val nodes = objTps.flatMap(tp => Seq(tp.s, tp.o)).distinct
    if (objTps.sizeIs != nodes.size - 1) return None
    if (objTps.exists(tp => tp.s == tp.o)) return None
    val adj = scala.collection.mutable.Map.empty[Term, Vector[(Term, TriplePattern)]]
    objTps.foreach { tp =>
      adj(tp.s) = adj.getOrElse(tp.s, Vector.empty) :+ (tp.o, tp)
      adj(tp.o) = adj.getOrElse(tp.o, Vector.empty) :+ (tp.s, tp)
    }
    // every data pattern must hang off a tree node
    if (!dataByTerm.keys.forall(nodes.contains)) return None
    // BFS from the first pattern's subject — the paper's plan construction
    val root = objTps.head.s
    val visited = scala.collection.mutable.Set[Term](root)
    def grow(t: Term): TreeNode = {
      val kids = adj.getOrElse(t, Vector.empty).collect {
        case (child, tp) if !visited.contains(child) =>
          visited += child
          (child, tp)
      }
      TreeNode(t, kids.map { case (c, tp) => (grow(c), tp) })
    }
    val tree = grow(root)
    if (visited.size != nodes.size) return None // disconnected
    Some(Plan(tree, dataByTerm))
  }

  override def supports(q: Query): Boolean = q.isPlainBgp && plan(q.groups.head.patterns).isDefined

  // ---- bottom-up evaluation ------------------------------------------------

  /** Table of sub-results stored at each node for `term`: the node's own
    * binding plus the expansions of its data-property patterns.
    */
  private def localTables(term: Term, dataTps: Seq[TriplePattern]): VertexRDD[Seq[Binding]] =
    graph.vertices.mapValues { case (value, props) =>
      val start: Seq[Binding] = term match {
        case Var(v)   => Seq(Map(v -> value))
        case Const(c) => if (c == value) Seq(Map.empty) else Seq.empty
      }
      dataTps.foldLeft(start) { (rows, tp) =>
        if (rows.isEmpty) rows
        else {
          val vals = props.getOrElse(tp.predConst.get, Seq.empty)
          tp.o match {
            case Const(c) => if (vals.contains(c)) rows else Seq.empty
            case Var(w) =>
              rows.flatMap(r =>
                vals.flatMap(v =>
                  r.get(w) match {
                    case Some(prev) => if (prev == v) Some(r) else None
                    case None       => Some(r + (w -> v))
                  }))
          }
        }
      }
    }.filter(_._2.nonEmpty).asInstanceOf[VertexRDD[Seq[Binding]]]

  /** Evaluate the subtree rooted at `node` bottom-up; returns each vertex's
    * table of sub-results for that subtree.
    */
  private def evalNode(node: TreeNode, dataByTerm: Map[Term, Seq[TriplePattern]]): RDD[(VertexId, Seq[Binding])] = {
    var table: RDD[(VertexId, Seq[Binding])] =
      localTables(node.term, dataByTerm.getOrElse(node.term, Seq.empty))
    for ((child, tp) <- node.children) {
      val childTable = evalNode(child, dataByTerm)
      val childIsObject = tp.o == child.term // tp = (parent p child) ?
      val pred = tp.predConst.get
      val parentTerm = node.term // local: the closure must not capture nodes
      val withTables = graph.outerJoinVertices(childTable)(
        (_, attr, t) => (attr._1, t.getOrElse(Seq.empty[Binding])))
      // the Map phase: each node sends its table along matching edges,
      // keyed by the parent's variable
      val lifted = withTables.aggregateMessages[Seq[Binding]](
        ctx =>
          if (ctx.attr == pred) {
            if (childIsObject) {
              val rows = ctx.dstAttr._2
              if (rows.nonEmpty)
                ctx.sendToSrc(extend(rows, parentTerm, ctx.srcAttr._1))
            } else {
              val rows = ctx.srcAttr._2
              if (rows.nonEmpty)
                ctx.sendToDst(extend(rows, parentTerm, ctx.dstAttr._1))
            }
          },
        _ ++ _,
      )
      table = table.join(lifted).mapValues { case (a, b) => Bindings.mergeLocal(a, b) }
        .filter(_._2.nonEmpty)
    }
    table
  }

  protected def matchBgp(ps: Vector[TriplePattern]): RDD[Binding] = {
    val p = plan(ps).get // supports() admitted the query, so a plan exists
    evalNode(p.root, p.dataByTerm).flatMap(_._2)
  }
}

/** Executor-side helper on the companion: Spark closures must not capture
  * the engine instance (it holds a non-serializable Graph).
  */
object SparKql {
  /** A node of the BFS plan tree (companion-nested: no $outer, so plan
    * fragments can ride inside Spark closures).
    */
  final case class TreeNode(term: Term, children: Seq[(TreeNode, TriplePattern)])
  final case class Plan(root: TreeNode, dataByTerm: Map[Term, Seq[TriplePattern]])

  /** Extend child rows with the parent's binding (if the parent is a var). */
  def extend(rows: Seq[Binding], parentTerm: Term, parentValue: String): Seq[Binding] =
    parentTerm match {
      case Var(v) =>
        rows.flatMap(r =>
          r.get(v) match {
            case Some(prev) => if (prev == parentValue) Some(r) else None
            case None       => Some(r + (v -> parentValue))
          })
      case Const(_) => rows
    }
}
