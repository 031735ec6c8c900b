package repro.algos

import org.apache.spark.sql.{functions => F}
import org.scalatest.funsuite.AnyFunSuite
import repro.{ReproSpec, TestUtil}
import repro.core._
import repro.data.HospitalGen

class TabularSpec extends AnyFunSuite {
  private val attrs = Seq("a", "b", "r")
  private def tab = Common.Tabular(
    Array(10L, 11L, 12L),
    Array(Array("ab", "c", "x"), Array("ab", "c", "x"), Array("a", "bc", "y")),
    attrs)

  test("patched keeps the first proposal when a cell gets two") {
    val p = tab.patched(Seq((12L, "r", "first"), (12L, "r", "second"), (10L, "a", "z")))
    assert(p.value(12L, "r") === "first")
    assert(p.value(10L, "a") === "z")
  }

  test("patched copies on write: the source snapshot keeps its rows") {
    val t = tab
    val p = t.patched(Seq((11L, "b", "q")))
    assert(t.value(11L, "b") === "c")
    assert(p.value(11L, "b") === "q")
    assert(p.rows(0) eq t.rows(0)) // untouched rows are shared
  }

  test("groups are keyed by LHS values, so no two LHS tuples share a key") {
    val g = tab.groups(Seq("a", "b"))
    assert(g.size === 2)
    assert(g(Seq("ab", "c")) === Seq(0, 1))
    assert(g(Seq("a", "bc")) === Seq(2))
    assert(tab.groupHist(FD(Seq("a", "b"), "r")) ===
      Map(Seq("ab", "c") -> Map("x" -> 2), Seq("a", "bc") -> Map("y" -> 1)))
  }

  test("value index and counts per attribute") {
    assert(tab.valueIndex(0) === Map("ab" -> Seq(0, 1), "a" -> Seq(2)))
    assert(tab.freq(2) === Map("x" -> 2, "y" -> 1))
  }
}

class DriverSideSpec extends ReproSpec {
  import Cells.Tid
  import TestUtil._

  test("LHS tuples whose joined strings agree stay in separate groups") {
    // ("ab","c") and ("a","bc") both join to "abc". The rows sharing a = "a"
    // give HoloClean co-occurrence candidates for row 3's y, so its rule
    // support decides: under the joined key the x rows would outvote y.
    val attrs = Seq("a", "b", "r")
    val df = mkDf(spark, attrs)(
      Seq("ab", "c", "x"), Seq("ab", "c", "x"), Seq("ab", "c", "x"),
      Seq("a", "bc", "y"), Seq("a", "bc", "y"), Seq("a", "bc", "w"),
      Seq("a", "q", "x"))
    val in = RepairInput(spark, "t", df, attrs, Seq(FD(Seq("a", "b"), "r")))
    for (res <- Seq(Relative.repair(in), HoloClean.repair(in))) {
      assert(cell(res.repaired, attrs, 3L, "r") === "y")
      assert(cell(res.repaired, attrs, 4L, "r") === "y")
    }
  }

  test("driver-side algorithms write back the dirty schema, tids and their changed cells") {
    val gd = HospitalGen.generate(spark, 120, HospitalGen.defaultSpec(5), 5)
    try {
      val in = RepairInput(spark, gd.name, gd.dirty, gd.attrs, gd.rules, gd.numericAttrs,
        labeled = gd.labeled, classTarget = Some(gd.classTarget))
      val before = toMap(gd.dirty, gd.attrs)
      def schemaOf(df: org.apache.spark.sql.DataFrame) = df.schema.map(f => (f.name, f.dataType))
      val runs = Seq(
        "Nadeef" -> (() => Nadeef.repair(in)),
        "Daisy" -> (() => Daisy.repair(in)),
        "Baran" -> (() => Baran.repair(in)),
        "Scare" -> (() => Scare.repair(in)),
        "HoloClean" -> (() => HoloClean.repair(in)),
        // one FD keeps the rule search within its node budget
        "Relative" -> (() => Relative.repair(in.copy(rules = in.fds.take(1)))),
        "Boostclean" -> (() => BoostClean.repair(in)))
      var changedTotal = 0L
      for ((name, run) <- runs) {
        val out = run().repaired
        assert(schemaOf(out) === schemaOf(gd.dirty), name)
        assert(out.count() === before.size, name)
        val after = toMap(out, gd.attrs)
        assert(after.keySet === before.keySet, name)
        assert(toMap(gd.dirty, gd.attrs) === before, s"$name mutated its input")
        val changed = Cells.changedCells(gd.dirty, out, gd.attrs)
          .select(F.col(Tid), F.col("attr"), F.col("new").as("value"))
        changedTotal += changed.count()
        assert(toMap(Cells.applyRepairs(gd.dirty, gd.attrs, changed), gd.attrs) === after, name)
      }
      assert(changedTotal > 0)
    } finally gd.unpersist()
  }
}
