package repro.perfbench

/** Order statistics and the small arithmetic the benchmark reports. */
object Stats {

  /** The `p`-th percentile (0–100) by linear interpolation between closest
    * ranks — the estimator NumPy and Python's `statistics` "inclusive"
    * method use. `NaN` for an empty sample.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(p >= 0 && p <= 100, s"percentile out of range: $p")
    if (xs.isEmpty) return Double.NaN
    val s = xs.sorted
    val pos = (s.length - 1) * p / 100.0
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** The highest of p90, p99 and p99.9 that still has at least ten samples
    * above it in a sample of `n`, if any does.
    */
  def supportedTail(n: Int): Option[Double] =
    Seq(99.9, 99.0, 90.0).find(p => n * (1 - p / 100) >= 10 - 1e-9)

  /** What is left of a measured total once its measured parts are taken
    * away: `total - Σ parts`. Not clamped, so a negative value shows that
    * the parts were over-counted.
    */
  def residual(total: Double, parts: Seq[Double]): Double = total - parts.sum

  /** Summary of one latency sample: count, median and the supported tail. */
  def summary(xs: Seq[Double]): Map[String, Any] = {
    val base = Map[String, Any]("n" -> xs.length, "p50" -> median(xs),
                                "min" -> (if (xs.isEmpty) Double.NaN else xs.min),
                                "max" -> (if (xs.isEmpty) Double.NaN else xs.max))
    supportedTail(xs.length).fold(base)(p => base + (s"p$p" -> percentile(xs, p)))
  }
}
