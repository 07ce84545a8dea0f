package perfbench

import java.io.{File, PrintWriter}
import scala.collection.immutable.VectorMap
import org.apache.spark.sql.SparkSession
import org.json4s.{DefaultFormats, Formats}
import org.json4s.jackson.Serialization

/** Command line of the benchmark JVM (started by `perfbench/run.py`):
  *
  *   --workload shapes|load  --seed N  --seconds S  --trace 0|1
  *   --work-dir DIR  [--commit C] [--source-hash H]
  *   [--sf X]                           (override the workload's scale)
  *   --smoke                            (tiny runs for run.py's smoke test)
  *
  * The last line of standard output is the result JSON.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val smoke = args.contains("--smoke")
    val opts = args.filterNot(_ == "--smoke").grouped(2)
      .collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workDir = new File(need("work-dir")).getAbsoluteFile
    workDir.mkdirs()

    // Half the cores run tasks; the rest keep the driver thread, JIT and GC
    // from competing with them, which made run-to-run times far noisier.
    val cores = math.max(1, Runtime.getRuntime.availableProcessors / 2)
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", 2 * cores)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(workDir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(workDir, "warehouse").getPath)
      .getOrCreate()
    try {
      def cfg(w: Workload, trace: Boolean) = Config(
        workload = w,
        seed = opts.get("seed").map(_.toLong).getOrElse(11L),
        seconds = opts.get("seconds").map(_.toDouble).getOrElse(45.0),
        trace = trace,
        sf = opts.get("sf").map(_.toDouble),
        commit = opts.getOrElse("commit", "unknown"),
        sourceHash = opts.getOrElse("source-hash", "unknown"),
      )
      if (smoke) {
        // Every workload, untraced and traced, plus one run whose expected
        // rows are deliberately wrong; one result line each.
        val runs = for (w <- Workloads.all; t <- Seq(false, true)) yield (s"${w.name}/trace$t", cfg(w, t))
        val corrupt = "shapes/corrupt" -> cfg(Workloads.shapes, trace = false).copy(corruptExpected = true)
        for ((label, c) <- runs :+ corrupt) {
          val r = Bench.run(spark, c)
          r.failures.foreach(f => Console.err.println(s"FAIL $f"))
          println(s"smoke $label ${resultJson(r)}")
        }
      } else {
        val r = Bench.run(spark, cfg(Workloads.byName(need("workload")), need("trace") == "1"))
        val name = s"${opts("workload")}-seed${opts.getOrElse("seed", "11")}-trace${opts("trace")}"
        write(new File(workDir, s"results/$name.json"), Seq(json(VectorMap(
          "identity" -> r.identity.to(VectorMap),
          "attempted" -> r.attempted, "failed" -> r.failed, "failures" -> r.failures,
          "metrics" -> r.metrics.map(m => VectorMap("name" -> m.name, "value" -> m.value, "unit" -> m.unit)),
        ))))
        if (r.spans.nonEmpty) write(new File(workDir, s"trace/$name.jsonl"), r.spans)
        Console.err.println(s"dataset: ${json(r.identity.to(VectorMap))}")
        r.report.foreach(l => Console.err.println(l))
        r.failures.foreach(f => Console.err.println(s"FAIL $f"))
        Console.err.println(f"failed_frac = ${r.failed.toDouble / r.attempted}%.4f (${r.failed} of ${r.attempted})")
        println(s"identity ${json(r.identity.to(VectorMap))}")
        println(resultJson(r))
      }
    } finally spark.stop()
  }

  private implicit val formats: Formats = DefaultFormats

  /** One JSON object; maps keep their insertion order. */
  def json(fields: VectorMap[String, Any]): String = Serialization.write(fields)

  def resultJson(r: Result): String = json(VectorMap(
    "correct" -> (r.failed == 0),
    "attempted" -> r.attempted,
    "failed" -> r.failed,
    "metrics" -> r.metrics.map(m => m.name -> VectorMap("value" -> m.value, "unit" -> m.unit)).to(VectorMap),
  ))

  private def write(f: File, lines: Seq[String]): Unit = {
    f.getParentFile.mkdirs()
    val w = new PrintWriter(f, "UTF-8")
    try lines.foreach(w.println) finally w.close()
  }
}
