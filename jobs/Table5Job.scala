package repro.jobs

import repro.core.Harness

/** spark-submit entrypoint reproducing Table 5 (dataset characteristics).
  *
  * Usage: Table5Job [taxRows]
  */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val taxRows = args.headOption.map(_.toInt).getOrElse(20000)
    Jobs.withSession("repro-table5") { spark =>
      val stats = Harness.table5(spark, taxRows = taxRows)
      println("==== Table 5: dataset characteristics ====")
      println(Harness.renderTable5(stats))
    }
  }
}
