package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Resource readings of the whole JVM at one instant. */
final case class Reading(wallNs: Long, cpuNs: Long, gcMs: Long)

object Reading {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def now(): Reading = {
    var gc = 0L
    ManagementFactory.getGarbageCollectorMXBeans.forEach(b => gc += math.max(0L, b.getCollectionTime))
    Reading(System.nanoTime(), os.getProcessCpuTime, gc)
  }
}

/** Sums wall, process-CPU and GC time over the timed segments of a sweep,
  * so that checks run between segments stay outside the measurement.
  */
final class Stopwatch {
  var wallNs = 0L
  var cpuNs  = 0L
  var gcMs   = 0L

  def time[T](body: => T): T = {
    val a = Reading.now()
    try body
    finally {
      val b = Reading.now()
      wallNs += b.wallNs - a.wallNs; cpuNs += b.cpuNs - a.cpuNs; gcMs += b.gcMs - a.gcMs
    }
  }
}

/** One traced call. Times are nanoseconds from the tracer's origin;
  * `run` groups the spans of one algorithm run.
  */
final class Span(val id: Int, val name: String, val parent: Int, val run: String,
                 val startNs: Long) {
  var endNs: Long = -1L
  var count: Long = -1L // the call's result size, where it has one
}

/** Spark work submitted while one span was innermost. */
final class SparkCounters {
  var jobs = 0
  var stages = 0
  var tasks = 0
  var shuffleWriteBytes = 0L
  /** `(start, end)` epoch milliseconds of each job. */
  val jobIntervals: mutable.ArrayBuffer[(Long, Long)] = mutable.ArrayBuffer.empty
}

/** Assigns Spark jobs, stages, tasks and shuffle bytes to the span that was
  * innermost on the submitting thread, read from the job's local property.
  */
final class SpanListener extends SparkListener {
  private val jobSpan   = mutable.Map.empty[Int, Int]
  private val jobStart  = mutable.Map.empty[Int, Long]
  private val stageSpan = mutable.Map.empty[Int, Int]
  val bySpan: mutable.Map[Int, SparkCounters] = mutable.Map.empty

  private def of(span: Int): SparkCounters = bySpan.getOrElseUpdate(span, new SparkCounters)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
      .map(_.toInt).getOrElse(Tracer.NoSpan)
    jobSpan(e.jobId) = span
    jobStart(e.jobId) = e.time
    e.stageIds.foreach(stageSpan(_) = span)
    of(span).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    for (span <- jobSpan.remove(e.jobId); start <- jobStart.remove(e.jobId))
      of(span).jobIntervals += ((start, e.time))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    of(stageSpan.getOrElse(e.stageInfo.stageId, Tracer.NoSpan)).stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val c = of(stageSpan.getOrElse(e.stageId, Tracer.NoSpan))
    c.tasks += 1
    if (e.taskMetrics != null) c.shuffleWriteBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
  }
}

/** In-memory span recorder for the traced pass. Spans nest on the calling
  * thread; each span's id is set as a Spark local property so that the
  * [[SpanListener]] can attribute the jobs the call submits.
  */
final class Tracer(sc: SparkContext) {
  val listener = new SpanListener
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private val stack = mutable.Stack.empty[Span]
  val originNs: Long = System.nanoTime()
  val originEpochMs: Long = System.currentTimeMillis()

  def span[T](name: String, run: String = "")(body: Span => T): T = {
    val parent = stack.headOption.map(_.id).getOrElse(Tracer.NoSpan)
    val s = new Span(spans.size, name, parent, run, System.nanoTime() - originNs)
    spans += s
    stack.push(s)
    sc.setLocalProperty(Tracer.SpanKey, s.id.toString)
    try body(s)
    finally {
      s.endNs = System.nanoTime() - originNs
      stack.pop()
      sc.setLocalProperty(Tracer.SpanKey, stack.headOption.map(_.id.toString).orNull)
    }
  }

  def attach(): Unit = sc.addSparkListener(listener)

  /** Stops counting once every posted event has reached the listener. */
  def detach(): Unit = {
    org.apache.spark.PerfbenchBus.drain(sc)
    sc.removeSparkListener(listener)
  }
}

object Tracer {
  val SpanKey = "perfbench.span"
  val NoSpan = -1
}

/** Counts Spark jobs by job group. In an untraced sweep these are the jobs
  * each `Harness.runOne` submits from its run thread.
  */
final class JobGroupCounter extends SparkListener {
  private val byGroup = mutable.Map.empty[String, Int]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    for (p <- Option(e.properties); g <- Option(p.getProperty("spark.jobGroup.id")))
      byGroup(g) = byGroup.getOrElse(g, 0) + 1
  }

  /** Jobs of every group whose id starts with `prefix`. */
  def jobs(prefix: String): Int = synchronized {
    byGroup.collect { case (g, n) if g.startsWith(prefix) => n }.sum
  }
}
