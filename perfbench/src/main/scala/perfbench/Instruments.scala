package perfbench

import java.lang.management.ManagementFactory
import scala.collection.immutable.VectorMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.{PerfbenchAccess, SparkContext}
import org.apache.spark.scheduler._

/** In-memory spans around the benchmark's calls into the program's public
  * functions. Disabled spans cost one branch, so the untraced run and the
  * untraced passes of the traced run pay nothing for them.
  */
final class Tracer(runId: String) {
  final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long)

  var enabled = false
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open = List.empty[Int]
  private var lastId = 0

  def apply[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      lastId += 1
      val id = lastId
      val parent = open.headOption.getOrElse(0)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        open = open.tail
        done += Span(id, parent, name, t0, System.nanoTime())
      }
    }

  /** One JSON object per span, in completion order. */
  def jsonLines: Seq[String] = done.toSeq.map { s =>
    Main.json(VectorMap(
      "run" -> runId, "id" -> s.id, "parent" -> s.parent, "name" -> s.name,
      "start_ns" -> s.startNs, "end_ns" -> s.endNs,
    ))
  }
}

/** Spark counters of one job group: jobs, stages, shuffle read + write
  * bytes, and records read (input + shuffle).
  */
final case class Counts(jobs: Long, stages: Long, shuffleBytes: Long, recordsRead: Long)

/** A listener that sums [[Counts]] per job group (`setJobGroup`). */
final class JobCounters(sc: SparkContext) extends SparkListener {
  private val byGroup = mutable.HashMap.empty[String, Array[Long]]
  private val stageGroup = mutable.HashMap.empty[Int, String]

  private def group(p: java.util.Properties): Option[String] =
    Option(p).flatMap(x => Option(x.getProperty("spark.jobGroup.id")))

  private def slot(g: String): Array[Long] = byGroup.getOrElseUpdate(g, new Array[Long](4))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    group(e.properties).foreach(g => slot(g)(0) += 1)
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    group(e.properties).foreach { g =>
      stageGroup(e.stageInfo.stageId) = g
      slot(g)(1) += 1
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    for {
      g <- stageGroup.remove(e.stageInfo.stageId)
      m <- Option(e.stageInfo.taskMetrics)
    } {
      val s = slot(g)
      s(2) += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
      s(3) += m.inputMetrics.recordsRead + m.shuffleReadMetrics.recordsRead
    }
  }

  /** Counters of a finished group; waits for the listener bus first. */
  def of(g: String): Counts = {
    PerfbenchAccess.drainListenerBus(sc)
    synchronized {
      val s = byGroup.getOrElse(g, new Array[Long](4))
      Counts(s(0), s(1), s(2), s(3))
    }
  }
}

/** Block-manager bytes held by cached RDDs, attributed to the engine that
  * created each RDD. RDD ids grow monotonically, so the benchmark marks the
  * id at which each engine's calls begin and end, and an RDD belongs to the
  * window its id falls in.
  */
final class StorageOwners(sc: SparkContext) {
  private val starts = mutable.ArrayBuffer(0 -> "")

  private def mark(): Int = sc.emptyRDD[Int].id

  def own[T](owner: String)(body: => T): T = {
    starts += mark() -> owner
    try body
    finally starts += mark() -> ""
  }

  private def ownerOf(rddId: Int): String = starts.takeWhile(_._1 <= rddId).last._2

  /** Bytes (memory + disk) per owner once garbage collection has settled:
    * unreferenced RDDs are only unpersisted by Spark's ContextCleaner after
    * a GC, so the snapshot is repeated until two in a row agree.
    */
  def settledBytes(): Map[String, Long] = {
    def snapshot(): Map[Int, Long] =
      sc.getRDDStorageInfo.map(i => i.id -> (i.memSize + i.diskSize)).toMap
    var prev = Map.empty[Int, Long]
    var cur = snapshot()
    var rounds = 0
    while (rounds < 2 || (cur != prev && rounds < 10)) {
      System.gc()
      Thread.sleep(250)
      prev = cur
      cur = snapshot()
      rounds += 1
    }
    cur.toSeq.groupMapReduce { case (id, _) => ownerOf(id) } { case (_, b) => b }(_ + _)
  }
}

/** Driver JVM: cumulative GC time and heap high-water mark. */
object Jvm {
  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP)

  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  def resetPeak(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum over heap pools of each pool's peak use since [[resetPeak]]. */
  def heapPeakBytes(): Long = heapPools.map(_.getPeakUsage.getUsed).sum
}
