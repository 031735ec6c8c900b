package perfbench

import java.security.MessageDigest
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.sql.{DataFrame, functions => F}
import repro.core.{Cells, RepairEval}

/** Driver-side copy of a relation: its schema and its rows by tuple id. */
final case class Table(schema: Seq[(String, String)], rows: Map[Long, IndexedSeq[String]],
                       nRows: Long) {
  /** SHA-256 over the schema and the rows in tuple-id order. */
  def digest: String = {
    val md = MessageDigest.getInstance("SHA-256")
    def put(s: String): Unit = md.update(String.valueOf(s).getBytes("UTF-8") :+ 0.toByte)
    schema.foreach { case (n, t) => put(n); put(t) }
    rows.keys.toSeq.sorted.foreach { tid => put(tid.toString); rows(tid).foreach(put) }
    md.digest().map("%02x".format(_)).mkString
  }
}

/** Result checks made outside the timed part of a sweep. They recompute
  * a run's outcome without the program's evaluation code, and look for
  * Spark work a run left behind.
  */
object Checks {
  import Cells.Tid

  def table(df: DataFrame, attrs: Seq[String]): Table = {
    val rows = df.select((Tid +: attrs).map(F.col): _*).collect()
    Table(df.schema.fields.map(f => f.name -> f.dataType.simpleString).toSeq,
      rows.map(r => r.getLong(0) -> attrs.indices.map(i => r.getString(i + 1))).toMap,
      rows.length.toLong)
  }

  // SQL comparison semantics: a comparison with NULL is never true.
  private def eq(a: String, b: String): Boolean  = a != null && b != null && a == b
  private def neq(a: String, b: String): Boolean = a != null && b != null && a != b

  /** `(oec, dec, iec, changed)` over the cells present in all three relations. */
  def counts(dirty: Table, repaired: Table, clean: Table): (Long, Long, Long, Long) = {
    var oec, dec, iec, changed = 0L
    for ((tid, d) <- dirty.rows; r <- repaired.rows.get(tid); c <- clean.rows.get(tid);
         i <- d.indices) {
      if (neq(d(i), c(i))) oec += 1
      if (neq(d(i), c(i)) && eq(r(i), c(i))) dec += 1
      if (eq(d(i), c(i)) && neq(r(i), c(i))) iec += 1
      if (neq(r(i), d(i))) changed += 1
    }
    (oec, dec, iec, changed)
  }

  /** Every way `repaired` and `ev` disagree with an independent recount,
    * or `repaired` fails to preserve the dirty relation's shape.
    */
  def problems(dirty: Table, clean: Table, repaired: Table, ev: RepairEval): Seq[String] = {
    val out = Seq.newBuilder[String]
    if (repaired.schema != dirty.schema)
      out += s"schema ${repaired.schema} != ${dirty.schema}"
    if (repaired.nRows != dirty.nRows) out += s"row count ${repaired.nRows} != ${dirty.nRows}"
    if (repaired.rows.keySet != dirty.rows.keySet) out += "tid set changed"
    val got = counts(dirty, repaired, clean)
    val want = (ev.oec, ev.dec, ev.iec, ev.changed)
    if (got != want) out += s"(oec, dec, iec, changed) recount $got != evaluate $want"
    out.result()
  }

  /** Spark jobs still active plus live threads named after `groupPrefix`,
    * once every posted listener event has been processed.
    */
  def stragglers(sc: SparkContext, groupPrefix: String): Int = {
    org.apache.spark.PerfbenchBus.drain(sc)
    val threads = Thread.getAllStackTraces.keySet.asScala
      .count(t => t.isAlive && t.getName.startsWith(groupPrefix))
    sc.statusTracker.getActiveJobIds().length + threads
  }
}
