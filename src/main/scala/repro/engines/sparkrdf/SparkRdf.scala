package repro.engines.sparkrdf

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.core.Bindings.Binding
import repro.rdf.RdfSynth
import repro.sparql._

/** SparkRDF [5] (Chen et al., WI-IAT 2015): "elastic discreted RDF graph
  * processing engine with distributed memory", per the survey:
  *
  *   - **MESG** (Multi-layer Elastic Sub-Graph) storage: level 1 splits a
  *     *class index* (triples with an `rdf:type` predicate, filed by object
  *     class) from a *relation index* (all other triples, filed by
  *     predicate); level 2 adds CR (class-relation) and RC (relation-class)
  *     indexes keyed by the subject's / object's class; level 3 adds CRC,
  *     combining subject class + predicate + object class;
  *   - **RDSG** (Resilient Discreted Semantic SubGraph): a distributed
  *     memory abstraction with generation / filter / prepartition / join
  *     operations built on the Spark API (no graph library — the survey
  *     files it under RDD);
  *   - query processing: the query becomes an ordered sequence of
  *     *variables*; per variable, its triple patterns are matched and
  *     joined on the shared variable, then evaluation moves to the next
  *     variable;
  *   - optimizations: each variable's class is pushed into the patterns
  *     that contain it (so `rdf:type` patterns are removed and unnecessary
  *     data is never read), and on-demand **dynamic pre-partitioning**
  *     hash-partitions operands on the join variable before each join.
  */
final class SparkRdf extends RddBgpEngine {

  val info: EngineInfo = EngineInfo(
    citation = "[5]",
    name = "SparkRDF",
    dataModel = "Graph",
    abstractions = Seq("RDD"),
    queryProcessing = "Custom",
    optimization = true,
    partitioning = "Hash-sbj",
    sparqlFragment = "BGP",
  )

  private val TypeP = RdfSynth.TypeProperty

  /** CRC index rows: (p, s, o, classes(s), classes(o)) for non-type triples. */
  private var crc: RDD[(String, String, String, Set[String], Set[String])] = _
  /** Class index: class → members (from rdf:type triples). */
  private var classIndex: RDD[(String, String)] = _
  /** rdf:type triples in CRC row form, subject classes attached. */
  private var typeRows: RDD[(String, String, String, Set[String], Set[String])] = _
  private var predSizes: Map[String, Long] = Map.empty
  private val partitioner = new HashPartitioner(16)

  override def load(triples: DataFrame): Unit = {
    val typeP = TypeP // local copy: closures must not capture the engine
    val raw = triples.rdd.map(r => (r.getString(0), r.getString(1), r.getString(2)))
    val typeTriples = raw.filter(_._2 == typeP)
    classIndex = typeTriples.map { case (s, _, c) => (c, s) }.persist(StorageLevel.MEMORY_AND_DISK)
    val typeSets = typeTriples.map { case (s, _, c) => (s, c) }
      .groupByKey().mapValues(_.toSet)
    typeRows = typeSets
      .flatMap { case (s, cs) => cs.map(c => (typeP, s, c, cs, Set.empty[String])) }
      .persist(StorageLevel.MEMORY_AND_DISK)
    val rel = raw.filter(_._2 != typeP)
    crc = rel
      .map { case (s, p, o) => (s, (p, o)) }
      .leftOuterJoin(typeSets)
      .map { case (s, ((p, o), sc)) => (o, (s, p, sc.getOrElse(Set.empty[String]))) }
      .leftOuterJoin(typeSets)
      .map { case (o, ((s, p, sc), oc)) => (p, s, o, sc, oc.getOrElse(Set.empty[String])) }
      .persist(StorageLevel.MEMORY_AND_DISK)
    crc.count()
    predSizes = rel.map(t => (t._2, 1L)).reduceByKey(_ + _).collectAsMap().toMap +
      (TypeP -> typeTriples.count())
  }

  /** Class constraints per variable, read off the query's rdf:type
    * patterns (constant class, variable instance) — these patterns are
    * then *removed* and their constraint pushed into the CRC lookups.
    */
  private def classConstraints(ps: Seq[TriplePattern]): (Map[String, Set[String]], Seq[TriplePattern]) = {
    val constraints = scala.collection.mutable.Map.empty[String, Set[String]]
    val rest = ps.filterNot {
      case TriplePattern(Var(x), Const(TypeP), Const(c)) =>
        constraints(x) = constraints.getOrElse(x, Set.empty) + c; true
      case _ => false
    }
    (constraints.toMap, rest)
  }

  /** Match one non-type pattern against the most specific MESG index the
    * variable classes allow (CRC / CR / RC / relation).
    */
  private def matchTp(tp: TriplePattern, constraints: Map[String, Set[String]]): RDD[Binding] = {
    val sReq: Set[String] = tp.s.varName.flatMap(constraints.get).getOrElse(Set.empty)
    val oReq: Set[String] = tp.o.varName.flatMap(constraints.get).getOrElse(Set.empty)
    val byPred = tp.predConst match {
      case Some(TypeP) => typeRows // rdf:type kept as pattern (var class etc.)
      case Some(p)     => crc.filter(_._1 == p)
      case None        => crc ++ typeRows
    }
    byPred.flatMap { case (p, s, o, sc, oc) =>
      if (sReq.subsetOf(sc) && oReq.subsetOf(oc))
        Bindings.bindTriple(tp, s, p, o)
      else None
    }
  }

  /** RDSG: bindings plus schema, with prepartitioned joins. */
  private final case class Rdsg(bindings: RDD[Binding], vars: Set[String]) {
    /** The dynamic pre-partitioning join: both operands are hash-partitioned
      * on the shared variables so "records sharing the same variable value
      * will be read into the same partition".
      */
    def join(other: Rdsg): Rdsg = {
      val keys = (vars intersect other.vars).toSeq.sorted
      val joined =
        if (keys.isEmpty) bindings.cartesian(other.bindings).map { case (a, b) => a ++ b }
        else {
          val l = bindings.keyBy(b => keys.map(b)).partitionBy(partitioner)
          val r = other.bindings.keyBy(b => keys.map(b)).partitionBy(partitioner)
          l.join(r).map { case (_, (a, b)) => a ++ b }
        }
      Rdsg(joined, vars ++ other.vars)
    }
  }

  protected def matchBgp(ps: Vector[TriplePattern]): RDD[Binding] = {
    val (constraints, tps) = classConstraints(ps)

    def est(tp: TriplePattern): Long = tp.predConst
      .map(p => predSizes.getOrElse(p, 0L))
      .getOrElse(predSizes.values.sum)

    // variable order: ascending by the most selective pattern that mentions
    // the variable; then per variable, patterns ascending by size
    val varOrder = tps.flatMap(_.vars).distinct
      .sortBy(v => tps.filter(_.vars.contains(v)).map(est).min)

    val remaining = scala.collection.mutable.ArrayBuffer(tps: _*)
    var acc: Option[Rdsg] = None
    for (x <- varOrder) {
      val mine = remaining.filter(_.vars.contains(x)).sortBy(est)
      mine.foreach { tp =>
        val rdsg = Rdsg(matchTp(tp, constraints), tp.varSet)
        acc = Some(acc.fold(rdsg)(_.join(rdsg)))
        remaining -= tp
      }
    }
    // fully-constant patterns act as existence guards
    remaining.foreach { tp =>
      val nonEmpty = matchTp(tp, constraints).take(1).nonEmpty
      if (!nonEmpty) acc = acc.map(r => Rdsg(r.bindings.filter(_ => false), r.vars))
    }
    // variables constrained by class only (no other pattern) come straight
    // from the class index
    val classOnly = constraints.keys.filterNot(v => tps.exists(_.vars.contains(v)))
    classOnly.foreach { v =>
      val req = constraints(v)
      val members = classIndex
        .map { case (c, s) => (s, c) }.groupByKey()
        .filter { case (_, cs) => req.subsetOf(cs.toSet) }
        .map { case (s, _) => Map(v -> s): Binding }
      val rdsg = Rdsg(members, Set(v))
      acc = Some(acc.fold(rdsg)(_.join(rdsg)))
    }

    acc.map(_.bindings).getOrElse(crc.sparkContext.emptyRDD[Binding])
  }
}
