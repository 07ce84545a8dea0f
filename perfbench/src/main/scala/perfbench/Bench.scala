package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.PerfbenchAccess
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.core.{ReferenceEngine, SparqlEngine}
import repro.engines.Engines
import repro.engines.graph.RdfGraph
import repro.engines.haqwa.Haqwa
import repro.engines.hybrid.HybridJoin
import repro.engines.s2rdf.S2Rdf
import repro.graphframes.GraphFrameLite
import repro.harness.Battery
import repro.rdf.{Dictionary, RdfSynth}
import repro.sparql.{Parser, ReferenceSql}

final case class Metric(name: String, value: Double, unit: String)

/** One set of inputs: a dataset scale and the battery queries run on it. */
final case class Workload(name: String, sf: Double, queries: Vector[String])

object Workloads {
  /** Shapes on every engine: a star (shuffle-free under subject hashing,
    * ExtVP SS tables) and a path ending in a star (HAQWA's replicated local
    * path, S2RDF's OS-ExtVP table). Joins, shuffles and GraphX supersteps
    * do the work.
    */
  val shapes = Workload("shapes", 0.02, Vector("star-3", "path-then-star"))

  /** Twice the data and point queries (plus one FILTER + OPTIONAL query for
    * the BGP+ engines): storage build at load dominates, and a query-side
    * change should not move it.
    */
  val load = Workload("load", 0.05,
    Vector("single-const-subject", "var-predicate", "optional-after-filter"))

  val all: Seq[Workload] = Seq(shapes, load)

  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$n' (one of ${all.map(_.name).mkString(", ")})"))
}

final case class Config(
    workload: Workload,
    seed: Long,
    seconds: Double,
    trace: Boolean,
    sf: Option[Double] = None,
    /** Smoke-test hook: drop a row from one expected result. */
    corruptExpected: Boolean = false,
    commit: String = "unknown",
    sourceHash: String = "unknown",
)

final case class Result(
    attempted: Long,
    failed: Long,
    metrics: Vector[Metric],
    identity: Seq[(String, Any)],
    failures: Vector[String],
    spans: Seq[String],
    report: Seq[String],
)

object Bench {
  /** Engine short names used in metric names: the engine's package. */
  def shortName(e: SparqlEngine): String = e match {
    case _: ReferenceEngine => "reference"
    case _ => e.getClass.getPackage.getName.split('.').last
  }

  val engineNames: Vector[String] = Engines.withReference().map(shortName).toVector

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  def geomean(xs: Seq[Double]): Double = math.exp(xs.map(math.log).sum / xs.size)

  def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  def run(spark: SparkSession, cfg: Config): Result = new Bench(spark, cfg).run()

  /** Timings of one execution, and its job group for the listener's counters. */
  final case class Exec(planNs: Long, drainNs: Long, group: String) {
    def ms: Double = (planNs + drainNs) / 1e6
  }

  final case class Sink[T](name: String, drain: DataFrame => T)

  sealed trait PassKind
  case object Warmup extends PassKind
  case object Plain extends PassKind
  case object Traced extends PassKind

  /** The steady passes of a run, in order, the same on every host. The
    * warm-up pass is discarded: after the cold pass the JIT is still at
    * work, and the next pass ran 2-29 % slower than the ones after it. A
    * traced run measures untraced and traced passes as U, T, T, U, so a
    * linear drift over the run falls on both sides alike.
    */
  def steadyPlan(trace: Boolean): Vector[PassKind] =
    if (trace) Vector(Warmup, Plain, Traced, Traced, Plain) else Vector(Warmup, Plain, Plain)

  /** One set-up: the dataset, the loaded engines and what it cost. */
  final case class Setup(
      triples: DataFrame,
      engines: Vector[(String, SparqlEngine)],
      totalS: Double,
      synthS: Double,
      loadS: Map[String, Double],
      gcMs: Double,
  )
}

/** One benchmark run: set up (generate + load every engine), one cold pass
  * verified against DuckDB, then steady passes until the time is up. One
  * client, one query at a time.
  */
final class Bench(spark: SparkSession, cfg: Config) {
  import Bench._

  private val sc = spark.sparkContext
  private val sf = cfg.sf.getOrElse(cfg.workload.sf)
  private val runId = s"${cfg.workload.name}-seed${cfg.seed}-trace${if (cfg.trace) 1 else 0}"
  private val tracer = new Tracer(runId)
  private val counters = new JobCounters(sc)
  private val owners = new StorageOwners(sc)
  private var tracing = false
  private val born = System.nanoTime()

  private def progress(msg: String): Unit =
    Console.err.println(f"[perfbench ${(System.nanoTime() - born) / 1e9}%7.2fs] $msg")

  private val queries: Vector[Battery.Q] = cfg.workload.queries.map(n =>
    Battery.all.find(_.name == n).getOrElse(sys.error(s"no battery query '$n'")))

  private var attempted = 0L
  private var failed = 0L
  private val failures = mutable.ArrayBuffer.empty[String]
  private val report = mutable.ArrayBuffer.empty[String]
  /** Successful executions per (label, query), and the pairs whose rows
    * differ from DuckDB's: every execution of such a pair counts as failed.
    */
  private val succeeded = mutable.HashMap.empty[(String, String), Long].withDefaultValue(0L)
  private val wrong = mutable.LinkedHashSet.empty[(String, String)]

  private def setTracing(on: Boolean): Unit = if (on != tracing) {
    tracing = on
    tracer.enabled = on
    if (on) sc.addSparkListener(counters)
    else {
      // Events of the last traced execution may still be queued.
      PerfbenchAccess.drainListenerBus(sc)
      sc.removeSparkListener(counters)
    }
  }

  private def note(label: String, query: String, why: String): Unit =
    if (failures.size < 50) failures += s"$label $query: $why"

  private def fail(label: String, query: String, why: String): Unit = {
    failed += 1
    note(label, query, why)
  }

  /** One execution: `execute` (plan) then a sink (drain), both timed. */
  private def execute[T](label: String, q: Battery.Q, sink: Sink[T])(run: => DataFrame): Option[(Exec, T)] = {
    attempted += 1
    val group = s"$label/${q.name}/$attempted"
    if (tracing) sc.setJobGroup(group, group)
    try tracer(s"exec $label ${q.name}") {
      val t0 = System.nanoTime()
      val df = tracer("SparqlEngine.execute")(run)
      val t1 = System.nanoTime()
      val out = tracer(sink.name)(sink.drain(df))
      val t2 = System.nanoTime()
      succeeded((label, q.name)) += 1
      Some((Exec(t1 - t0, t2 - t1, group), out))
    } catch {
      case NonFatal(e) =>
        fail(label, q.name, s"threw ${e.getClass.getSimpleName}: ${String.valueOf(e.getMessage).take(200)}")
        None
    } finally if (tracing) sc.clearJobGroup()
  }

  /** Steady passes: Spark's built-in sink that runs the whole plan and keeps nothing. */
  private val noop = Sink[Unit]("sink.noop", _.write.format("noop").mode("overwrite").save())
  /** The cold pass: rows come back to the driver so they can be verified
    * without executing the query a second time.
    */
  private val collect = Sink[(Seq[String], Array[Row])]("sink.collect", df => (df.columns.toSeq, df.collect()))

  private def supported(e: SparqlEngine): Vector[Battery.Q] = queries.filter(q => e.supports(q.query))

  private type Pass = (Double, Map[(String, String), Exec])

  /** One steady pass over every supported (engine, query) pair, engine by engine. */
  private def pass(engines: Seq[(String, SparqlEngine)], name: String): Pass = tracer(s"pass $name") {
    val t0 = System.nanoTime()
    val execs = engines.flatMap { case (n, e) =>
      owners.own(n)(supported(e).flatMap(q => execute(n, q, noop)(e.execute(q.query)).map(x => (n, q.name) -> x._1)))
    }
    ((System.nanoTime() - t0) / 1e9, execs.toMap)
  }

  private def releaseAll(): Unit = {
    spark.catalog.clearCache()
    sc.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
  }

  /** Generate the dataset and load all ten engines. */
  private def setupOnce(): Setup = tracer("setup") {
    val gc0 = Jvm.gcMillis()
    val t0 = System.nanoTime()
    val triples = tracer("RdfSynth.social") {
      val t = RdfSynth.social(spark, sf, cfg.seed).cache()
      t.count()
      t
    }
    val t1 = System.nanoTime()
    val engines = Engines.withReference().map(e => shortName(e) -> e).toVector
    val loadS = engines.map { case (n, e) =>
      val l0 = System.nanoTime()
      owners.own(n)(tracer(s"SparqlEngine.load $n")(e.load(triples)))
      n -> (System.nanoTime() - l0) / 1e9
    }.toMap
    val t2 = System.nanoTime()
    Setup(triples, engines, (t2 - t0) / 1e9, (t1 - t0) / 1e9, loadS, (Jvm.gcMillis() - gc0).toDouble)
  }

  def run(): Result = {
    setTracing(cfg.trace)
    Jvm.resetPeak()
    val metrics = mutable.ArrayBuffer.empty[Metric]
    def emit(name: String, value: Double, unit: String): Unit = metrics += Metric(name, value, unit)

    // --- set-up, once: a second one would cost a fifth of the run
    val s = setupOnce()
    progress(f"setup: ${s.totalS}%.2f s (synth ${s.synthS}%.2f s) " +
      s.loadS.toSeq.sortBy(-_._2).map { case (n, t) => f"$n $t%.2f" }.mkString(" "))
    val triples = s.triples.collect().map(r => (r.getString(0), r.getString(1), r.getString(2)))
    val fingerprint = triples.iterator
      .map { case (a, b, c) => scala.util.hashing.MurmurHash3.stringHash(s"$a\u0000$b\u0000$c").toLong & 0xffffffffL }
      .foldLeft(0L)(_ + _)

    // --- cold pass: lazily built storage is paid here. Every result is
    // compared with DuckDB's, outside the timed region.
    val oracle = new DuckOracle(triples)
    val expected = mutable.HashMap.empty[String, Bag]
    var corrupted = !cfg.corruptExpected
    var verifyNs = 0L
    def firstRun(label: String, q: Battery.Q)(run: => DataFrame): Option[Exec] =
      execute(label, q, collect)(run).map { case (x, (cols, rows)) =>
        val v0 = System.nanoTime()
        val got = Bag.ofRows(cols, rows)
        var exp = expected.getOrElseUpdate(q.name, oracle.query(ReferenceSql.toSql(q.query)))
        if (!corrupted && exp.rows.nonEmpty) { exp = exp.copy(rows = exp.rows.tail); corrupted = true }
        // Counted as failed at the end, with every other execution of the pair.
        got.diff(exp).foreach { d =>
          note(label, q.name, s"differs from DuckDB: $d")
          wrong += ((label, q.name))
        }
        verifyNs += System.nanoTime() - v0
        x
      }
    val first = tracer("pass first") {
      val t0 = System.nanoTime()
      val execs = for ((n, e) <- s.engines; q <- supported(e); x <- owners.own(n)(firstRun(n, q)(e.execute(q.query))))
        yield (n, q.name) -> x
      val wall = (System.nanoTime() - t0 - verifyNs) / 1e9
      (wall, execs.toMap)
    }
    val firstS = first._1
    progress(f"first pass: $firstS%.2f s (+ ${verifyNs / 1e9}%.2f s verifying)")
    val storedAfterFirst = if (cfg.trace) owners.settledBytes() else Map.empty[String, Long]

    // --- steady passes: a fixed plan. `seconds` only caps it: once the
    // steady phase has lasted that long, no further pass starts, except
    // that every kind of pass in the plan runs at least once.
    val steadyStart = System.nanoTime()
    val plan = steadyPlan(cfg.trace)
    val floor = plan.distinct.map(plan.indexOf).max + 1
    val passes = mutable.ArrayBuffer.empty[(PassKind, Pass)]
    while (passes.size < plan.size &&
        (passes.size < floor || (System.nanoTime() - steadyStart) / 1e9 < cfg.seconds)) {
      val (kind, k) = (plan(passes.size), passes.size)
      setTracing(kind == Traced)
      val p = pass(s.engines, s"steady-$k")
      passes += kind -> p
      progress(f"steady pass $k ($kind): ${p._1}%.2f s")
    }
    setTracing(cfg.trace)
    def ofKind(k: PassKind): Seq[Pass] = passes.collect { case (`k`, p) => p }.toSeq
    val plain = ofKind(Plain)
    val traced = ofKind(Traced)
    val steady = if (cfg.trace) traced else plain

    def medians(ps: Seq[Pass], f: Exec => Double): Map[(String, String), Double] =
      ps.flatMap(_._2.toSeq).groupMap(_._1)(x => f(x._2)).view.mapValues(median).toMap
    val pairMs = medians(steady, _.ms)
    def byEngine(m: Map[(String, String), Double], n: String) = m.collect { case ((e, _), v) if e == n => v }.toSeq

    // Pairs per engine, for the report on stderr.
    for (((n, q), ms) <- pairMs.toSeq.sortBy(_._1))
      report += f"  $n%-10s $q%-22s ${ms}%10.2f ms (median of ${steady.count(_._2.contains((n, q)))})"

    if (!cfg.trace) {
      emit("setup_s", s.totalS, "s")
      emit("first_pass_s", firstS, "s")
      emit("pass_s", median(plain.map(_._1)), "s")
      emit("query_geomean_ms", geomean(pairMs.values.toSeq), "ms")
    } else {
      val heapPeakMb = Jvm.heapPeakBytes() / 1048576.0
      val storedAfterSteady = owners.settledBytes()

      emit("rdf.synth_s", s.synthS, "s")
      emit("rdf.triples", triples.length.toDouble, "count")
      def standalone(name: String)(build: => () => Unit): Double = {
        val t0 = System.nanoTime()
        val release = tracer(name)(build)
        val dt = (System.nanoTime() - t0) / 1e9
        release()
        dt
      }
      emit("rdf.dictionary_s", standalone("Dictionary.encode") {
        val d = Dictionary.encode(s.triples)
        d.encoded.count(); d.idOf.size
        () => d.dict.unpersist(blocking = true)
      }, "s")
      emit("graph.build_s", standalone("RdfGraph.build") {
        val g = RdfGraph.build(s.triples)
        g.graph.edges.count()
        () => g.graph.unpersist(blocking = true)
      }, "s")
      emit("graphframes.build_s", standalone("GraphFrameLite.fromTriples") {
        val g = GraphFrameLite.fromTriples(s.triples)
        g.vertices.count(); g.edges.count()
        () => ()
      }, "s")
      val parseUs = queries.map { q =>
        median((1 to 200).map { _ =>
          val t0 = System.nanoTime()
          tracer("Parser.parse")(Parser.parse(q.sparql))
          (System.nanoTime() - t0) / 1e3
        })
      }
      emit("sparql.parse_us", median(parseUs), "us")

      val planMs = medians(steady, _.planNs / 1e6)
      val drainMs = medians(steady, _.drainNs / 1e6)
      val counts = steady.flatMap(_._2.toSeq).groupMap(_._1)(x => counters.of(x._2.group))
      def perQuery(n: String, f: Counts => Long): Double =
        mean(counts.collect { case ((e, _), cs) if e == n => median(cs.map(c => f(c).toDouble)) }.toSeq)
      val mb = 1048576.0
      for (n <- engineNames) {
        emit(s"$n.query_ms", geomean(byEngine(pairMs, n)), "ms")
        emit(s"$n.load_s", s.loadS(n), "s")
        emit(s"$n.first_ms", first._2.collect { case ((e, _), x) if e == n => x.ms }.sum, "ms")
        emit(s"$n.plan_ms", geomean(byEngine(planMs, n)), "ms")
        emit(s"$n.drain_ms", geomean(byEngine(drainMs, n)), "ms")
        emit(s"$n.jobs", perQuery(n, _.jobs), "count")
        emit(s"$n.stages", perQuery(n, _.stages), "count")
        emit(s"$n.shuffle_bytes", perQuery(n, _.shuffleBytes), "B")
        emit(s"$n.records_read", perQuery(n, _.recordsRead), "count")
        emit(s"$n.storage_mb", storedAfterFirst.getOrElse(n, 0L) / mb, "MB")
        emit(s"$n.retained_mb",
          (storedAfterSteady.getOrElse(n, 0L) - storedAfterFirst.getOrElse(n, 0L)) / mb / passes.size, "MB")
      }
      emit("jvm.gc_ms", s.gcMs, "ms")
      emit("jvm.heap_peak_mb", heapPeakMb, "MB")

      // --- ablations: the survey's mechanisms switched off, same queries
      def ablate(label: String, e: SparqlEngine)(exec: Battery.Q => DataFrame): (Double, Map[String, Counts]) = {
        val qs = supported(e)
        qs.foreach(q => owners.own(label)(firstRun(label, q)(exec(q))))
        val runs = for (_ <- 1 to 2; q <- qs; (x, _) <- execute(label, q, noop)(exec(q))) yield q.name -> x
        val ms = runs.groupMap(_._1)(_._2.ms).values.map(median).toSeq
        val cs = runs.groupMap(_._1)(_._2).map { case (q, xs) => q -> counters.of(xs.last.group) }
        (geomean(ms), cs)
      }
      def meanOf(cs: Map[String, Counts], f: Counts => Long): Double = mean(cs.values.map(c => f(c).toDouble).toSeq)

      val vp = new S2Rdf(sfThreshold = 0.0)
      owners.own("s2rdf-vp")(vp.load(s.triples))
      val (vpMs, vpCounts) = ablate("s2rdf-vp", vp)(q => vp.execute(q.query))
      emit("s2rdf-vp.query_ms", vpMs, "ms")
      emit("s2rdf-vp.records_read", meanOf(vpCounts, _.recordsRead), "count")

      val blind = new Haqwa(Seq.empty)
      owners.own("haqwa-blind")(blind.load(s.triples))
      val (blindMs, blindCounts) = ablate("haqwa-blind", blind)(q => blind.execute(q.query))
      emit("haqwa-blind.query_ms", blindMs, "ms")
      emit("haqwa-blind.shuffle_bytes", meanOf(blindCounts, _.shuffleBytes), "B")

      val hybrid = s.engines.collectFirst { case (_, h: HybridJoin) => h }.get
      for (st <- Seq(HybridJoin.SparkSql, HybridJoin.Partitioned, HybridJoin.Broadcast)) {
        val label = s"hybrid-${st.label.replace("-", "")}"
        emit(s"$label.query_ms", ablate(label, hybrid)(q => hybrid.executeWith(q.query, st))._1, "ms")
      }

      emit("trace.overhead_frac", median(traced.map(_._1)) / median(plain.map(_._1)) - 1, "fraction")

      // Reported, not asserted: the counters behind two survey claims.
      for (q <- Seq("star-3", "path-then-star"); c <- counts.get(("haqwa", q)))
        report += s"  haqwa.shuffle_bytes[$q] = ${median(c.map(_.shuffleBytes.toDouble))}"
      report += s"  s2rdf.records_read = ${perQuery("s2rdf", _.recordsRead)} vs s2rdf-vp.records_read = ${meanOf(vpCounts, _.recordsRead)}"
    }
    oracle.close()
    releaseAll()
    failed += wrong.toSeq.map(succeeded).sum

    val identity = Seq(
      "workload" -> cfg.workload.name, "sf" -> sf, "seed" -> cfg.seed, "triples" -> triples.length,
      "fingerprint" -> f"$fingerprint%016x", "master" -> sc.master, "cores" -> sc.defaultParallelism,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "auto_broadcast_join_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "spark" -> spark.version, "jdk" -> System.getProperty("java.version"),
      "commit" -> cfg.commit, "source_sha256" -> cfg.sourceHash,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "steady_passes" -> passes.map(_._1.toString).mkString(","), "trace" -> cfg.trace,
    )
    Result(attempted, failed, metrics.toVector, identity, failures.toVector, tracer.jsonLines, report.toSeq)
  }
}
