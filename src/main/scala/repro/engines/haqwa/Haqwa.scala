package repro.engines.haqwa

import org.apache.spark.HashPartitioner
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.core.Bindings.Binding
import repro.rdf.Dictionary
import repro.sparql._

/** HAQWA [7] (Curé et al., ISWC 2015 P&D) — "a hash-based and query
  * workload aware distributed RDF store", per the survey:
  *
  *   - *encoding*: string values are dictionary-encoded to integers
  *     ("minimizes data volume and makes processing more efficient").
  *   - *fragmentation step 1*: hash partitioning on triple **subjects** —
  *     star-shaped (sub-)queries are then evaluated locally inside each
  *     partition, with no shuffle.
  *   - *fragmentation step 2*: allocation guided by a *frequent-query
  *     workload* — for each workload query, triples needed by the non-seed
  *     fragments are **replicated** into the partitions holding the seed
  *     fragment's subjects, so the whole query evaluates locally.
  *   - *query processing*: the query is decomposed into local sub-queries
  *     (star fragments); a seed fragment anchors evaluation; SPARQL maps
  *     onto the RDD API (join / filter / count).
  *
  * BGPs canonically equal to a workload query run fully partition-local
  * (base + replicated triples, zipPartitions); all other BGPs fall back
  * to locally-evaluated star fragments joined with shuffles.
  */
final class Haqwa(workload: Seq[Query] = Seq.empty) extends RddBgpEngine {

  val info: EngineInfo = EngineInfo(
    citation = "[7]",
    name = "HAQWA",
    dataModel = "Triple",
    abstractions = Seq("RDD"),
    queryProcessing = "RDD API",
    optimization = false,
    partitioning = "Hash / Query Aware",
    sparqlFragment = "BGP+",
  )

  import Haqwa.{ETerm, ETp, matchLocal}

  private var dict: Dictionary = _
  /** id → value, broadcast once per load for decoding results. */
  private var values: Broadcast[Map[Long, String]] = _
  private val partitioner = new HashPartitioner(16)
  /** Base fragments: triples keyed by subject id, hash-partitioned. */
  private var base: RDD[(Long, (Long, Long))] = _
  /** Workload-replicated triples, keyed by the *seed* subject that needs them. */
  private var replicated: RDD[(Long, (Long, Long, Long))] = _
  private var workloadShapes: Set[Vector[String]] = Set.empty

  /** Canonical form of a BGP: variables renamed by first appearance, so
    * workload membership is structural, not name-based.
    */
  private def canonical(ps: Seq[TriplePattern]): Vector[String] = {
    val names = scala.collection.mutable.LinkedHashMap.empty[String, String]
    def c(t: Term): String = t match {
      case Var(n)   => names.getOrElseUpdate(n, s"?${names.size}")
      case Const(v) => v
    }
    ps.map(tp => s"${c(tp.s)} ${c(tp.p)} ${c(tp.o)}").toVector
  }

  override def load(triples: DataFrame): Unit = {
    val sc = triples.sparkSession.sparkContext
    dict = Dictionary.encode(triples)
    values = sc.broadcast(dict.valueOf)
    base = dict.encoded
      .map { case (s, p, o) => (s, (p, o)) }
      .partitionBy(partitioner)
      .persist(StorageLevel.MEMORY_AND_DISK)
    base.count()

    // Step 2: workload-aware allocation. For each 2-fragment workload query
    // with a subject-object link (x p y)(y q z): co-locate every (y q z)
    // with the partition of x. Only shapes whose replication fully covers
    // every non-seed fragment are registered for the local fast path.
    val replParts = scala.collection.mutable.ArrayBuffer.empty[RDD[(Long, (Long, Long, Long))]]
    workload.filter(_.isPlainBgp).foreach { q =>
      val frags = fragments(q.groups.head.patterns)
      if (frags.sizeIs == 1) workloadShapes += canonical(q.groups.head.patterns)
      else {
        val seed = frags.head
        val covered = frags.tail.forall { frag =>
          val linkPred = for {
            fragSubjVar <- frag.head.s.varName
            link <- seed.find(_.o == Var(fragSubjVar))
            predId <- link.predConst.flatMap(dict.encodeConst)
          } yield predId
          linkPred match {
            case Some(linkPredId) =>
              // (x linkPred y) join (y * *) → key replicated triple by x
              val linkEdges = base.filter(_._2._1 == linkPredId).map { case (x, (_, y)) => (y, x) }
              replParts += base
                .join(linkEdges) // (y, ((p2, z), x))
                .map { case (y, ((p2, z), x)) => (x, (y, p2, z)) }
              true
            case None => false
          }
        }
        if (covered) workloadShapes += canonical(q.groups.head.patterns)
      }
    }
    replicated =
      (if (replParts.isEmpty) sc.emptyRDD[(Long, (Long, Long, Long))]
       else replParts.reduce(_ union _))
        .partitionBy(partitioner)
        .persist(StorageLevel.MEMORY_AND_DISK)
    replicated.count()
  }

  /** Star fragments: consecutive run-groups of patterns sharing a subject term. */
  private def fragments(ps: Seq[TriplePattern]): Seq[Seq[TriplePattern]] = {
    val order = scala.collection.mutable.LinkedHashMap.empty[Term, scala.collection.mutable.ArrayBuffer[TriplePattern]]
    ps.foreach(tp => order.getOrElseUpdate(tp.s, scala.collection.mutable.ArrayBuffer.empty) += tp)
    order.values.map(_.toSeq).toSeq
  }

  private def encodeTp(tp: TriplePattern): Option[ETp] = {
    def e(t: Term): Option[ETerm] = t match {
      case Var(n)   => Some(Right(n))
      case Const(v) => dict.encodeConst(v).map(Left(_))
    }
    for (s <- e(tp.s); p <- e(tp.p); o <- e(tp.o)) yield ETp(s, p, o)
  }

  private def decode(rdd: RDD[Map[String, Long]]): RDD[Binding] = {
    val vs = values // local copy: closures must not capture the engine
    rdd.map(_.map { case (k, id) => k -> vs.value(id) })
  }

  /** Star fragment → bindings, evaluated inside each partition (subjects
    * are co-located by the hash fragmentation, so no shuffle happens).
    */
  private def evalFragmentLocally(frag: Seq[TriplePattern]): RDD[Binding] = {
    encodeAll(frag) match {
      case None => base.sparkContext.emptyRDD[Binding]
      case Some(eps) =>
        val enc = base.mapPartitions { it =>
          val bySubj = it.toSeq.groupMap(_._1)(_._2)
          matchLocal(eps.toList, bySubj, Map.empty)
        }
        decode(enc)
    }
  }

  private def encodeAll(ps: Seq[TriplePattern]): Option[Seq[ETp]] = {
    val encoded = ps.map(encodeTp)
    if (encoded.exists(_.isEmpty)) None else Some(encoded.flatten)
  }

  /** Fully partition-local evaluation for workload queries: base triples
    * plus the triples replicated for this query's shape.
    */
  private def evalWorkloadLocally(ps: Seq[TriplePattern]): RDD[Binding] = {
    encodeAll(fragments(ps).flatten) match {
      case None => base.sparkContext.emptyRDD[Binding]
      case Some(eps) =>
        val enc = base.zipPartitions(replicated, preservesPartitioning = true) {
          (baseIt, replIt) =>
            val local = baseIt.toSeq
            // the same triple may be replicated for several seeds in this
            // partition, or already live here — dedupe (RDF graphs are sets)
            val repl = replIt.map { case (_, (s, p, o)) => (s, (p, o)) }.toSeq
            val localSubjects = local.map(_._1).toSet
            val bySubj = (local ++ repl).distinct.groupMap(_._1)(_._2)
            // seeds live here; replicated triples complete the other frags
            matchLocal(eps.toList, bySubj, Map.empty, Some(localSubjects))
        }
        decode(enc)
    }
  }

  protected def matchBgp(ps: Vector[TriplePattern]): RDD[Binding] =
    if (workloadShapes.contains(canonical(ps))) evalWorkloadLocally(ps)
    else {
      val frags = fragments(ps)
      Bindings.joinAll(frags.map(f => (evalFragmentLocally(f), f.flatMap(_.vars).toSet)))
    }
}

/** Executor-side helpers: kept on the companion so Spark closures never
  * capture the (non-serializable) engine instance.
  */
object Haqwa {
  /** A pattern position: Left(id) = encoded constant, Right(name) = variable. */
  type ETerm = Either[Long, String]
  final case class ETp(s: ETerm, p: ETerm, o: ETerm)

  /** Backtracking BGP evaluation over one partition's subject-indexed
    * triples. Patterns must be ordered so every pattern after the first in
    * its fragment has its subject bound (fragments() + seed-first gives
    * that). Unbound subject vars (fragment heads) range over the
    * partition's *own* subjects only — replicated triples must never seed
    * a match, or results would be duplicated across partitions.
    */
  def matchLocal(
      ps: List[ETp],
      bySubj: Map[Long, Seq[(Long, Long)]],
      b: Map[String, Long],
      seedSubjects: Option[Set[Long]] = None,
  ): Iterator[Map[String, Long]] = ps match {
    case Nil => Iterator.single(b)
    case tp :: rest =>
      val subjects: Iterator[Long] = tp.s match {
        case Left(id) => Iterator.single(id)
        case Right(v) =>
          b.get(v) match {
            case Some(s) => Iterator.single(s)
            case None    => seedSubjects.map(_.iterator).getOrElse(bySubj.keysIterator)
          }
      }
      subjects.flatMap { s =>
        val b1 = tp.s match {
          case Right(v) if !b.contains(v) => b + (v -> s)
          case _                          => b
        }
        bySubj.getOrElse(s, Seq.empty).iterator.flatMap { case (p, o) =>
          unify(tp.p, p, b1).flatMap(b2 => unify(tp.o, o, b2)) match {
            case Some(b3) => matchLocal(rest, bySubj, b3, seedSubjects)
            case None     => Iterator.empty
          }
        }
      }
  }

  private def unify(t: ETerm, v: Long, b: Map[String, Long]): Option[Map[String, Long]] =
    t match {
      case Left(id) => if (id == v) Some(b) else None
      case Right(n) =>
        b.get(n) match {
          case Some(prev) => if (prev == v) Some(b) else None
          case None       => Some(b + (n -> v))
        }
    }
}
