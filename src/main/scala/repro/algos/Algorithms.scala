package repro.algos

import repro.core.RepairAlgorithm

/** Registry of the twelve benchmarked algorithms, in Table 4's column
  * order (rule-driven, data-driven, rule&data-driven, model-driven).
  */
object Algorithms {
  val all: Seq[RepairAlgorithm] = Seq(
    BigDansing, Holistic, Nadeef, Daisy, MLNClean, Horizon,
    Baran, Scare,
    HoloClean, Unified, Relative,
    BoostClean,
  )

  /** Lookup by display name. */
  def byName(name: String): RepairAlgorithm =
    all.find(_.name.equalsIgnoreCase(name))
      .getOrElse(throw new IllegalArgumentException(
        s"unknown algorithm $name; known: ${all.map(_.name).mkString(", ")}"))
}
