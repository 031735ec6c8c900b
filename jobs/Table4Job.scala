package repro.jobs

import repro.algos.Algorithms
import repro.core.Harness

/** spark-submit entrypoint reproducing Table 4 (error detection and repair
  * performance on the four real-world-profile datasets).
  *
  * Usage: Table4Job [budgetSeconds]
  */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val budgetS = args.headOption.map(_.toLong).getOrElse(Harness.Table4BudgetS)
    Jobs.withSession("repro-table4") { spark =>
      val outcomes = Harness.table4(spark, Algorithms.all, budgetS * 1000)
      println("==== Table 4: error detection and repair performance ====")
      println(Harness.renderTable4(outcomes))
    }
  }
}
