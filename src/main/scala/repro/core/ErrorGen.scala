package repro.core

import scala.util.Random

/** BART-style error injection (Section 4.1, "Error Generation").
  *
  * Two error categories from the paper:
  *  - inner errors: the correct value is replaced by a randomly selected
  *    alternative from within the attribute's (clean) domain;
  *  - outer errors: typos, explicit and implicit missing values,
  *    formatting issues, and Gaussian noise on numeric attributes.
  *
  * Injection is cell-level, independent, and deterministic in the seed.
  */
object ErrorGen {

  sealed trait ErrorType { def label: String }
  /** Inner: in-domain value swap (the paper's VAD errors are realized this way). */
  case object InnerSwap  extends ErrorType { val label = "VAD" }
  /** Outer: random character edit. */
  case object Typo       extends ErrorType { val label = "T" }
  /** Outer: explicit missing value (empty cell). */
  case object ExplicitMV extends ErrorType { val label = "MV" }
  /** Outer: implicit missing value (a placeholder token). */
  case object ImplicitMV extends ErrorType { val label = "MV" }
  /** Outer: formatting issue (case/whitespace/punctuation mangling). */
  case object Format     extends ErrorType { val label = "FI" }
  /** Outer: Gaussian noise on numeric values. */
  case object Gaussian   extends ErrorType { val label = "FI" }

  val OuterTypes: Set[ErrorType] = Set(Typo, ExplicitMV, ImplicitMV, Format, Gaussian)

  /** Error profile: overall cell error `rate` and a weighted mix of types. */
  final case class ErrorSpec(
      rate: Double,
      typeWeights: Seq[(ErrorType, Double)],
      seed: Long,
      immuneAttrs: Set[String] = Set.empty,
  ) {
    require(rate >= 0 && rate <= 1, s"rate out of range: $rate")
    require(typeWeights.nonEmpty && typeWeights.forall(_._2 >= 0), "bad type weights")
  }

  /** The paper's robustness mix: inner : outer = 1 : 4 at the given rate. */
  def mixedSpec(rate: Double, seed: Long): ErrorSpec = ErrorSpec(
    rate,
    Seq(InnerSwap -> 1.0, Typo -> 1.0, ExplicitMV -> 1.0, ImplicitMV -> 1.0, Format -> 1.0),
    seed)

  /** Only inner errors (Section 4.3 error-type study). */
  def innerSpec(rate: Double, seed: Long): ErrorSpec =
    ErrorSpec(rate, Seq(InnerSwap -> 1.0), seed)

  /** Only outer errors. */
  def outerSpec(rate: Double, seed: Long): ErrorSpec = ErrorSpec(
    rate,
    Seq(Typo -> 1.0, ExplicitMV -> 1.0, ImplicitMV -> 1.0, Format -> 1.0), seed)

  private val ImplicitTokens = Cells.MvTokens.filter(_.nonEmpty).toVector

  private def pickType(spec: ErrorSpec, rnd: Random): ErrorType = {
    val total = spec.typeWeights.map(_._2).sum
    var x = rnd.nextDouble() * total
    spec.typeWeights.foreach { case (t, w) => if (x < w) return t else x -= w }
    spec.typeWeights.last._1
  }

  private[core] def typo(v: String, rnd: Random): String = {
    if (v.isEmpty) "x"
    else rnd.nextInt(3) match {
      case 0 => // insert
        val i = rnd.nextInt(v.length + 1)
        v.substring(0, i) + ('a' + rnd.nextInt(26)).toChar + v.substring(i)
      case 1 => // delete
        val i = rnd.nextInt(v.length)
        v.substring(0, i) + v.substring(i + 1)
      case _ => // substitute
        val i = rnd.nextInt(v.length)
        v.substring(0, i) + ('a' + rnd.nextInt(26)).toChar + v.substring(i + 1)
    }
  }

  private[core] def format(v: String, rnd: Random): String = {
    val out = rnd.nextInt(4) match {
      case 0 => v.toUpperCase
      case 1 => v.toLowerCase
      case 2 => v.replace(" ", "_")
      case _ => v + " "
    }
    if (out == v) v + " " else out
  }

  private[core] def gaussian(v: String, rnd: Random): String =
    try {
      val x = v.trim.toDouble
      val noisy = x + rnd.nextGaussian() * math.max(math.abs(x) * 0.1, 1.0)
      if (v.matches("-?\\d+")) math.round(noisy).toString
      else f"$noisy%.2f"
    } catch { case _: NumberFormatException => typo(v, rnd) }

  private def innerSwap(v: String, domain: IndexedSeq[String], rnd: Random): String = {
    if (domain.size <= 1) typo(v, rnd)
    else {
      var cand = domain(rnd.nextInt(domain.size))
      var tries = 0
      while (cand == v && tries < 10) { cand = domain(rnd.nextInt(domain.size)); tries += 1 }
      if (cand == v) typo(v, rnd) else cand
    }
  }

  /** Corrupt one value, guaranteeing the output differs from the input. */
  private def corrupt(v: String, t: ErrorType, domain: IndexedSeq[String],
                      numeric: Boolean, rnd: Random): String = {
    val out = t match {
      case InnerSwap  => innerSwap(v, domain, rnd)
      case Typo       => typo(v, rnd)
      case ExplicitMV => ""
      case ImplicitMV => ImplicitTokens(rnd.nextInt(ImplicitTokens.size))
      case Format     => format(v, rnd)
      case Gaussian   => if (numeric) gaussian(v, rnd) else typo(v, rnd)
    }
    if (out == v) typo(v, rnd) else out
  }

  /** Inject errors into `clean` rows (row-major, attrs order), returning the
    * dirty copy. Deterministic in `spec.seed`.
    */
  def inject(clean: Array[Array[String]], attrs: Seq[String],
             numericAttrs: Set[String], spec: ErrorSpec): Array[Array[String]] = {
    val rnd = new Random(spec.seed)
    val domains: Array[IndexedSeq[String]] =
      attrs.indices.map(j => clean.map(_(j)).distinct.toIndexedSeq).toArray
    val immune = attrs.zipWithIndex.collect {
      case (a, j) if spec.immuneAttrs.contains(a) => j
    }.toSet
    clean.map { row =>
      val out = row.clone()
      var j = 0
      while (j < row.length) {
        if (!immune.contains(j) && rnd.nextDouble() < spec.rate) {
          val t = pickType(spec, rnd)
          out(j) = corrupt(row(j), t, domains(j), numericAttrs.contains(attrs(j)), rnd)
        }
        j += 1
      }
      out
    }
  }
}
