package repro.voting

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.model.{Series, SubTraj}

/** Neighborhood-aware Trajectory Segmentation (NaTS) — phase 1b of
  * S2T-Clustering.
  *
  * Given a trajectory's per-sample voting signal, partition it into
  * sub-trajectories of *homogeneous representativeness*, irrespective of shape
  * complexity: break where the voting level changes (an object joins or leaves
  * a co-moving group), not where the path bends. We use recursive top-down
  * binary splitting that accepts a split when it reduces the within-segment
  * sum of squared errors of the voting signal by more than `lambda` — an
  * MDL-flavoured criterion equivalent in spirit to the one in [9]/[8].
  *
  * Temporal gaps longer than `maxGap` always split (an object that is absent
  * for a while starts a new sub-trajectory) — this also handles the clipping
  * that QuT performs at window boundaries.
  */
object Segmentation {

  final case class Params(lambda: Double, minLen: Int, maxGap: Long)

  /** Within-segment SSE of `v` over [lo, hi) given prefix sums. */
  private def sse(pre: Array[Double], pre2: Array[Double], lo: Int, hi: Int): Double = {
    val n = hi - lo
    if (n <= 1) 0.0
    else {
      val s = pre(hi) - pre(lo)
      val s2 = pre2(hi) - pre2(lo)
      math.max(0.0, s2 - s * s / n)
    }
  }

  /** Segment boundaries over a gap-free voting signal: list of [lo, hi)
    * half-open ranges covering `votes.indices`.
    */
  def segmentIndices(votes: Array[Double], lambda: Double, minLen: Int): List[(Int, Int)] = {
    require(minLen >= 1, s"minLen must be >= 1, got $minLen")
    if (votes.isEmpty) return Nil
    val n = votes.length
    val pre = new Array[Double](n + 1)
    val pre2 = new Array[Double](n + 1)
    var i = 0
    while (i < n) { pre(i + 1) = pre(i) + votes(i); pre2(i + 1) = pre2(i) + votes(i) * votes(i); i += 1 }

    def split(lo: Int, hi: Int): List[(Int, Int)] = {
      if (hi - lo < 2 * minLen) return List((lo, hi))
      val whole = sse(pre, pre2, lo, hi)
      var bestK = -1
      var bestCost = Double.MaxValue
      var k = lo + minLen
      while (k <= hi - minLen) {
        val c = sse(pre, pre2, lo, k) + sse(pre, pre2, k, hi)
        if (c < bestCost) { bestCost = c; bestK = k }
        k += 1
      }
      if (bestK >= 0 && whole - bestCost > lambda) split(lo, bestK) ::: split(bestK, hi)
      else List((lo, hi))
    }
    split(0, n)
  }

  /** Split one object's voted series into [[SubTraj]]s: first at temporal
    * gaps, then by voting homogeneity. `subId`s are consecutive from 0 in
    * temporal order.
    */
  def segmentOne(s: Series, p: Params): Array[SubTraj] = {
    val ts = s.ts
    if (ts.isEmpty) return Array.empty
    // gap pre-split
    val runs = List.newBuilder[(Int, Int)]
    var lo = 0
    var i = 1
    while (i < ts.length) {
      if (ts(i) - ts(i - 1) > p.maxGap) { runs += ((lo, i)); lo = i }
      i += 1
    }
    runs += ((lo, ts.length))

    val out = Array.newBuilder[SubTraj]
    var subId = 0
    for ((rLo, rHi) <- runs.result()) {
      val seg = segmentIndices(s.votes.slice(rLo, rHi), p.lambda, p.minLen)
      for ((sLo, sHi) <- seg) {
        out += SubTraj(s.slice(rLo + sLo, rLo + sHi), subId)
        subId += 1
      }
    }
    out.result()
  }

  /** [[segmentOne]] per object of a voted DataFrame (obj_id, t, x, y, vote), after one
    * shuffle by object and [[Series.byObject]] per partition. No program path calls it
    * (S2T segments on the driver); the benchmark's traced S2T run composes it.
    */
  def segmentTrajectories(voted: DataFrame, p: Params): Dataset[SubTraj] = {
    val spark = voted.sparkSession
    import spark.implicits._
    voted.select($"obj_id", $"t", $"x", $"y", $"vote").repartition($"obj_id")
      .as[(Long, Long, Double, Double, Double)]
      .mapPartitions(rows => Series.byObject(rows.toArray).iterator.flatMap(segmentOne(_, p)))
  }
}
