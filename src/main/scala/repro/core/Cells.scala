package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession, functions => F}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

/** Cell-level view over a relation.
  *
  * Throughout the reproduction a dataset is a DataFrame with a LONG
  * `__tid` tuple-id column plus STRING attribute columns (missing values
  * are the empty string, never SQL NULL). A "cell" is the pair
  * (`__tid`, attr); the melted view `(__tid, attr, value)` is the common
  * currency of detection results, repair proposals, and metrics.
  */
object Cells {

  /** Name of the tuple-id column every dataset carries. */
  val Tid = "__tid"

  /** Missing-value tokens: the empty string (explicit) plus the implicit
    * placeholders [[ErrorGen]] injects. Detection flags them, and no repair
    * ever chooses one: "repairing" toward a missing value has unbounded
    * cost in every cost model.
    */
  val MvTokens: Seq[String] = Seq("", "N/A", "UNKNOWN", "999", "null")

  private val MvSet = MvTokens.toSet

  def isMissing(v: String): Boolean = MvSet.contains(v)

  /** Publish driver-side rows (`rows(i)` in `attrs` order, tuple id
    * `tids(i)`) as a wide relation with the standard schema.
    */
  def fromRows(spark: SparkSession, tids: Array[Long], rows: Array[Array[String]],
               attrs: Seq[String]): DataFrame = {
    val schema = StructType(
      StructField(Tid, LongType, nullable = false) +:
        attrs.map(a => StructField(a, StringType, nullable = false)))
    spark.createDataFrame(
      spark.sparkContext.parallelize(
        rows.indices.map(i => Row.fromSeq(tids(i) +: rows(i).toSeq)),
        math.max(1, math.min(16, rows.length / 2000))),
      schema)
  }

  /** Melt a wide relation into `(__tid, attr, value)` rows via `stack`. */
  def melt(df: DataFrame, attrs: Seq[String]): DataFrame = {
    require(attrs.nonEmpty, "melt needs at least one attribute")
    val stackArgs = attrs.map(a => s"'$a', `$a`").mkString(", ")
    df.selectExpr(Tid, s"stack(${attrs.size}, $stackArgs) as (attr, value)")
  }

  /** Inverse of [[melt]]: pivot `(__tid, attr, value)` back to wide form. */
  def unmelt(cells: DataFrame, attrs: Seq[String]): DataFrame =
    cells
      .groupBy(F.col(Tid))
      .pivot("attr", attrs)
      .agg(F.first("value"))
      .select(F.col(Tid) +: attrs.map(F.col): _*)

  /** Apply cell repairs `(__tid, attr, value)` to `dirty`, returning the
    * repaired wide relation. Cells absent from `repairs` keep their value;
    * duplicate proposals for one cell resolve to an arbitrary single one.
    */
  def applyRepairs(dirty: DataFrame, attrs: Seq[String], repairs: DataFrame): DataFrame = {
    // localCheckpoint: repair sets are tiny but their lineage (unions of
    // window/join subplans, one per rule) makes Catalyst re-optimize a
    // huge plan for every downstream action — materialize and cut it
    val rep = repairs
      .groupBy(F.col(Tid), F.col("attr"))
      .agg(F.first("value").as("__fix"))
      .localCheckpoint()
    val fixed = melt(dirty, attrs)
      .join(rep, Seq(Tid, "attr"), "left")
      .select(F.col(Tid), F.col("attr"), F.coalesce(F.col("__fix"), F.col("value")).as("value"))
    unmelt(fixed, attrs)
  }

  /** Cells where `before` and `after` differ: `(__tid, attr, old, new)`. */
  def changedCells(before: DataFrame, after: DataFrame, attrs: Seq[String]): DataFrame = {
    val b = melt(before, attrs).withColumnRenamed("value", "old")
    val a = melt(after, attrs).withColumnRenamed("value", "new")
    b.join(a, Seq(Tid, "attr")).where(F.col("old") =!= F.col("new"))
  }

  /** Empty `(__tid, attr, value)` frame, for algorithms that propose nothing. */
  def noRepairs(df: DataFrame): DataFrame =
    df.sparkSession
      .emptyDataFrame
      .select(F.lit(0L).as(Tid), F.lit("").as("attr"), F.lit("").as("value"))
      .limit(0)
}
