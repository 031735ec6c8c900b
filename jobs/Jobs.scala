package repro.jobs

import org.apache.spark.sql.SparkSession

/** Spark session shared by the spark-submit entrypoints. */
private[jobs] object Jobs {

  /** Runs `body` on a session for `app` (`SPARK_MASTER` overrides
    * `local[*]`), stopping the session afterwards.
    */
  def withSession(app: String)(body: SparkSession => Unit): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.shuffle.partitions", "16")
      .getOrCreate()
    try body(spark) finally spark.stop()
  }
}
