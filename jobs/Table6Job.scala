package repro.jobs

import repro.algos.Algorithms
import repro.core.Harness

/** spark-submit entrypoint reproducing Table 6 (runtime scaling on nested
  * Tax subsets; "n/a" = budget exceeded, "n/a*" = simulated OOM).
  *
  * Usage: Table6Job [budgetSeconds [size1,size2,...]]
  */
object Table6Job {
  def main(args: Array[String]): Unit = {
    val budgetS = args.headOption.map(_.toLong).getOrElse(Harness.Table6BudgetS)
    val sizes = args.lift(1)
      .map(_.split(",").map(_.trim.toInt).toSeq)
      .getOrElse(Harness.Table6Sizes)
    Jobs.withSession("repro-table6") { spark =>
      val outcomes = Harness.table6(spark, Algorithms.all, sizes, budgetS * 1000,
        Harness.HoloCleanMaxCells)
      println("==== Table 6: runtime scaling on Tax subsets ====")
      println(Harness.renderTable6(outcomes))
    }
  }
}
