package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, SparkSession, functions => F}
import repro.algos.{Algorithms, Nadeef}
import repro.core._
import repro.data.{DataGen, FlightsGen, GeneratedDataset, HospitalGen}
import repro.detect.Raha

/** One benchmark invocation: one workload in one fresh JVM.
  *
  * A sweep is the inner loop of `Harness.table4` for one dataset:
  * generate, detect, `Harness.runOne` for the workload's algorithms, and
  * one detection-guarded Nadeef. The twelve algorithms are split between
  * the two workloads, so that each runs on one of them and a sweep fits
  * its time.
  *
  * An untraced run sets up a Spark session [[SetUps]] times, then makes
  * exactly one sweep, cold, as a fresh `spark-submit` of the harness does.
  * A traced run makes that same untraced sweep, then a traced one: it calls
  * the same public functions one at a time, each in a span, with a Spark
  * listener assigning jobs to spans. If time is left it makes a second
  * untraced sweep, to give the tracing overhead. Checks run between the
  * timed segments and are kept out of every timing.
  *
  * Writes one JSON document with the raw per-sweep records to `--out`.
  */
object PerfBench {
  import Cells.Tid

  /** A generator at its native size and default errors, and the algorithms
    * its sweep runs, in Table 4's column order.
    */
  final case class Workload(gen: DataGen, algos: Seq[String]) {
    def swept: Seq[RepairAlgorithm] = algos.map(Algorithms.byName)
  }

  /** Rule-driven algorithms with wide Spark plans on `hospital`; the
    * data-driven ones, Nadeef and Relative on `flights`.
    */
  val workloads: Map[String, Workload] = Map(
    "hospital" -> Workload(HospitalGen, Seq("Bigdansing", "Holistic", "MLNClean", "Horizon", "Unified")),
    "flights" -> Workload(FlightsGen,
      Seq("Nadeef", "Daisy", "Baran", "Scare", "HoloClean", "Relative", "Boostclean")))

  /** Spark `local[n]` threads, at most the machine's cores. */
  val Threads = 4

  /** `spark.sql.shuffle.partitions`: the relations are small. */
  val ShufflePartitions = 1

  /** Spark session set-ups per run; `setup_s` is their median. */
  val SetUps = 3

  /** Per-run wall budget: far above the slowest run of every workload. */
  val BudgetMs = 300000L

  /** A traced run makes its second untraced sweep only if it has run for
    * less than this, so that it ends well within its time limit.
    */
  val OverheadSweepBeforeS = 80

  /** Label of the detection-guarded run. */
  val GuardedLabel: String = DetectionGuard.guarded(Nadeef).name

  /** Records the result an algorithm hands back to `Harness.runOne`. */
  final class Capture(algo: RepairAlgorithm) extends RepairAlgorithm {
    @volatile var result: Option[RepairResult] = None
    override def name: String = algo.name
    override def category: String = algo.category
    override def repair(in: RepairInput): RepairResult = {
      val r = algo.repair(in)
      result = Some(r)
      r
    }
  }

  /** Driver-side copies of one sweep's inputs, for the result checks. */
  final class Truth(gd: GeneratedDataset, det: DataFrame) {
    val dirty: Table = Checks.table(gd.dirty, gd.attrs)
    val clean: Table = Checks.table(gd.clean, gd.attrs)
    private val dirtyDigest = dirty.digest
    val flagged: Long = det.select(F.col(Tid), F.col("attr")).distinct().count()

    /** `#detected` of an `ok` run (-1 otherwise) and every problem found. */
    def check(eval: Option[RepairEval], result: Option[RepairResult]): (Long, Seq[String]) = {
      val input =
        if (Checks.table(gd.dirty, gd.attrs).digest != dirtyDigest) Seq("dirty relation changed")
        else Nil
      (eval, result) match {
        case (Some(ev), Some(res)) =>
          val nDet = res.detections
            .map(_.select(F.col(Tid), F.col("attr")).distinct().count())
            .getOrElse(ev.changed)
          (nDet, input ++ Checks.problems(dirty, clean, Checks.table(res.repaired, gd.attrs), ev))
        case _ => (-1L, input)
      }
    }
  }

  private def runRecord(algo: String, status: String, repairS: Double, eval: Option[RepairEval],
                        nDet: Long, message: String, problems: Seq[String],
                        stragglers: Int): Map[String, Any] = Map(
    "algo" -> algo, "status" -> status, "repair_s" -> repairS,
    "result" -> (status +: eval.toSeq.flatMap(e => Seq(e.oec, e.dec, e.iec, e.changed, nDet))),
    "message" -> message, "problems" -> problems, "stragglers" -> stragglers)

  // ---------------- untraced sweep ----------------

  /** One untraced sweep. With a `jobs` counter attached, each run also
    * records the Spark jobs its `runOne` thread submitted.
    */
  def untracedSweep(spark: SparkSession, w: Workload, seed: Long,
                    jobs: Option[JobGroupCounter] = None): Map[String, Any] = {
    val sc = spark.sparkContext
    val rdds0 = sc.getPersistentRDDs.size
    val sw = new Stopwatch
    val segments = mutable.LinkedHashMap.empty[String, Double]
    def seg[T](name: String)(body: => T): T = {
      val w0 = sw.wallNs
      try sw.time(body) finally segments(name) = (sw.wallNs - w0) / 1e9
    }
    val gd  = seg("data.generate")(w.gen.generate(spark, seed))
    val det = seg("detect.raha")(Raha.detect(gd.dirty, gd.attrs, gd.rules, gd.labeled).localCheckpoint())
    val truth = new Truth(gd, det)
    val runs = (w.swept :+ DetectionGuard.guarded(Nadeef)).map { a =>
      val cap = new Capture(a)
      val group = s"${a.name}-${gd.name}-"
      val jobs0 = jobs.map(_.jobs(group))
      val o = seg(s"run.${a.name}")(Harness.runOne(cap, gd, BudgetMs, precomputedDetections = Some(det)))
      val stragglers = Checks.stragglers(sc, group) // drains the listener bus
      val (nDet, problems) = truth.check(o.eval, cap.result.filter(_ => o.status == "ok"))
      runRecord(o.algo, o.status, o.repairSeconds, o.eval, nDet, "", problems, stragglers)
        .updated("spark_jobs", jobs.map(_.jobs(group) - jobs0.get).getOrElse(-1))
    }
    seg("unpersist") { det.unpersist(); gd.unpersist() }
    Map("traced" -> false, "wall_s" -> sw.wallNs / 1e9, "cpu_s" -> sw.cpuNs / 1e9,
      "gc_s" -> sw.gcMs / 1e3, "leaked_rdds" -> (sc.getPersistentRDDs.size - rdds0),
      "flagged_cells" -> truth.flagged, "segments" -> segments.toMap, "runs" -> runs)
  }

  // ---------------- traced sweep ----------------

  /** Spans whose names start with this prefix hold checks, not program work. */
  val CheckPrefix = "check."

  def tracedSweep(spark: SparkSession, w: Workload, seed: Long): Map[String, Any] = {
    val sc = spark.sparkContext
    val tr = new Tracer(sc)
    val rdds0 = sc.getPersistentRDDs.size
    val gc0 = Reading.now()
    tr.attach()
    val (runs, flagged, rawChanged) = try tr.span("sweep") { _ =>
      val gd  = tr.span("data.generate")(_ => w.gen.generate(spark, seed))
      val det = tr.span("detect.raha")(_ =>
        Raha.detect(gd.dirty, gd.attrs, gd.rules, gd.labeled).localCheckpoint())
      val truth = tr.span(CheckPrefix + "truth")(_ => new Truth(gd, det))
      tr.span("core.Violations.violatingCells") { s =>
        s.count = Violations.violatingCells(gd.dirty, gd.rules).count()
      }
      val plain = w.swept.map { a =>
        tracedRun(tr, gd, det, truth, a.name) { in =>
          tr.span(s"algos.${a.name}", a.name) { _ =>
            val r = a.repair(in)
            r.repaired.cache().count() // materialize: repair ends here
            r
          }
        }
      }
      var raw: Option[RepairResult] = None
      val guarded = tracedRun(tr, gd, det, truth, GuardedLabel) { in =>
        val r = tr.span("core.DetectionGuard.repair", GuardedLabel)(_ => Nadeef.repair(in))
        raw = Some(r)
        tr.span("core.DetectionGuard.guard", GuardedLabel) { _ =>
          val g = DetectionGuard.guard(in.dirty, in.attrs, r, det)
          g.repaired.cache().count()
          g
        }
      }
      val rawChanged = tr.span(CheckPrefix + "guard", GuardedLabel)(_ =>
        raw.map(r => Cells.changedCells(gd.dirty, r.repaired, gd.attrs).count()).getOrElse(0L))
      det.unpersist(); gd.unpersist()
      (plain :+ guarded, truth.flagged, rawChanged)
    } finally tr.detach()
    val gc1 = Reading.now()
    Map("traced" -> true, "gc_s" -> (gc1.gcMs - gc0.gcMs) / 1e3,
      "leaked_rdds" -> (sc.getPersistentRDDs.size - rdds0), "flagged_cells" -> flagged,
      "guard_raw_changed" -> rawChanged, "runs" -> runs, "spans" -> spanRecords(tr),
      "unattributed_jobs" -> tr.listener.bySpan.get(Tracer.NoSpan).map(_.jobs).getOrElse(0))
  }

  /** One traced run: `repair` (which opens its own spans), then evaluation,
    * then re-application of the run's changed cells to the dirty relation.
    */
  private def tracedRun(tr: Tracer, gd: GeneratedDataset, det: DataFrame, truth: Truth,
                        label: String)(repair: RepairInput => RepairResult): Map[String, Any] = {
    val sc = gd.dirty.sparkSession.sparkContext
    val in = Harness.inputFor(gd, Budget(System.currentTimeMillis() + BudgetMs), Some(det))
    val t0 = System.nanoTime()
    val res: Either[(String, String), RepairResult] =
      try Right(repair(in))
      catch {
        case e: BudgetExceeded => Left(("n/a", e.getMessage))
        case e: SimulatedOOM   => Left(("n/a*", e.getMessage))
        case NonFatal(e)       => Left(("err", e.toString))
      }
    val repairS = (System.nanoTime() - t0) / 1e9
    val rec = res match {
      case Left((status, message)) =>
        runRecord(label, status, repairS, None, -1L, message, Nil, 0)
      case Right(r) =>
        val ev = tr.span("core.Metrics.evaluate", label)(_ =>
          Metrics.evaluate(gd.dirty, r.repaired, gd.clean, gd.attrs, r.detections))
        val changed = tr.span("core.Cells.changedCells", label)(_ =>
          Cells.changedCells(gd.dirty, r.repaired, gd.attrs)
            .select(F.col(Tid), F.col("attr"), F.col("new").as("value"))
            .localCheckpoint())
        val reapplied = tr.span("core.Cells.applyRepairs", label)(_ =>
          Checks.table(Cells.applyRepairs(gd.dirty, gd.attrs, changed), gd.attrs))
        tr.span(CheckPrefix + "result", label) { s =>
          s.count = changed.count()
          changed.unpersist()
          val (nDet, problems) = truth.check(Some(ev), Some(r))
          val same = reapplied.rows == Checks.table(r.repaired, gd.attrs).rows
          r.repaired.unpersist()
          runRecord(label, "ok", repairS, Some(ev), nDet, "",
            problems ++ (if (same) Nil else Seq("re-applied changed cells differ from the output")), 0)
        }
    }
    val stragglers = tr.span(CheckPrefix + "isolation", label)(_ =>
      Checks.stragglers(sc, s"$label-${gd.name}-"))
    rec.updated("stragglers", stragglers)
  }

  /** Total length of the union of `(start, end)` intervals. */
  private def unionLength(iv: Seq[(Double, Double)]): Double = {
    var total = 0.0
    var reach = Double.NegativeInfinity
    for ((s, e) <- iv.sortBy(_._1)) {
      val from = math.max(s, reach)
      if (e > from) { total += e - from; reach = e }
    }
    total
  }

  private def spanRecords(tr: Tracer): Seq[Map[String, Any]] = tr.spans.toSeq.map { s =>
    val c = tr.listener.bySpan.getOrElse(s.id, new SparkCounters)
    val start = s.startNs / 1e9
    val end = s.endNs / 1e9
    // job times are epoch milliseconds; clip them to the span
    val jobs = c.jobIntervals.toSeq.map { case (a, b) =>
      (math.max(start, (a - tr.originEpochMs) / 1e3), math.min(end, (b - tr.originEpochMs) / 1e3))
    }
    Map("id" -> s.id, "name" -> s.name, "parent" -> s.parent, "run" -> s.run,
      "start_s" -> start, "end_s" -> end, "count" -> s.count,
      "jobs" -> c.jobs, "stages" -> c.stages, "tasks" -> c.tasks,
      "shuffle_write_bytes" -> c.shuffleWriteBytes, "job_s" -> unionLength(jobs))
  }

  // ---------------- main ----------------

  /** Builds a Spark session and runs a first query on it. */
  private def setUp(threads: Int, localDir: String): SparkSession = {
    val spark = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", localDir)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark.range(1000).groupBy((F.col("id") % 7).as("k")).count().collect()
    spark
  }

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val w = workloads(opts("workload"))
    val seed = opts("seed").toLong
    val trace = opts("trace") == "1"
    val threads = math.min(Threads, Runtime.getRuntime.availableProcessors)

    // Set-ups: the first from process start, so it includes JVM start and
    // class loading; the others each build a new session after stopping
    // the previous one.
    var spark = setUp(threads, opts("local-dir"))
    val setups = mutable.ArrayBuffer(
      (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3)
    try {
      while (setups.size < SetUps) {
        spark.stop()
        val t0 = System.nanoTime()
        spark = setUp(threads, opts("local-dir"))
        setups += (System.nanoTime() - t0) / 1e9
      }

      // Every run starts with one cold untraced sweep. A traced run then
      // makes a traced sweep and, with time left, an untraced one to compare
      // it with: both run warm, so their shared calls give the tracing
      // overhead. A counter of jobs by job group lets the untraced sweeps of
      // a traced run repeat the traced sweep's per-run job counts.
      val sweeps = mutable.ArrayBuffer.empty[Map[String, Any]]
      if (trace) {
        val sc = spark.sparkContext
        val jobs = new JobGroupCounter
        sc.addSparkListener(jobs)
        sweeps += untracedSweep(spark, w, seed, Some(jobs))
        sweeps += tracedSweep(spark, w, seed)
        val elapsedS = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
        if (elapsedS < OverheadSweepBeforeS) sweeps += untracedSweep(spark, w, seed, Some(jobs))
        sc.removeSparkListener(jobs)
      } else {
        sweeps += untracedSweep(spark, w, seed)
      }

      val record = Map(
        "nproc" -> Runtime.getRuntime.availableProcessors,
        "spark_master" -> spark.sparkContext.master,
        "spark_threads" -> threads,
        "shuffle_partitions" -> ShufflePartitions,
        "driver_heap_bytes" -> Runtime.getRuntime.maxMemory,
        "spark_version" -> spark.version,
        "scala_version" -> scala.util.Properties.versionNumberString,
        "java_version" -> System.getProperty("java.version"),
        "seed" -> seed,
        "workload" -> opts("workload"),
        "algorithms" -> w.algos,
        "run_budget_s" -> BudgetMs / 1e3)
      val doc = Map("record" -> record, "setup_s" -> setups.toSeq, "sweeps" -> sweeps.toSeq)
      Files.write(Paths.get(opts("out")), Json.encode(doc).getBytes(StandardCharsets.UTF_8))
    } finally spark.stop()
  }
}

/** Minimal JSON encoder for the benchmark's records. */
object Json {
  def encode(v: Any): String = v match {
    case null | None       => "null"
    case Some(x)           => encode(x)
    case s: String         => quote(s)
    case b: Boolean        => b.toString
    case d: Double         => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Number         => n.toString
    case m: Map[_, _]      => m.map { case (k, x) => quote(k.toString) + ":" + encode(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]   => xs.map(encode).mkString("[", ",", "]")
    case other             => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
}
