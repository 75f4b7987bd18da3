package repro.model

/** Time-synchronized distance between sampled trajectories.
  *
  * This is the distance the S2T/QuT framework is built on: two sub-trajectories
  * are compared only over their common lifespan, by linearly interpolating one
  * onto the sample timestamps of the other and averaging the Euclidean
  * point distances. Pairs without sufficient temporal overlap are incomparable
  * (distance = +inf), which is what makes the clustering *time-aware* — two
  * shapes that coincide spatially but live at different times never cluster.
  */
object TrajDistance {

  /** Mean time-synchronized Euclidean distance plus the overlap length.
    *
    * @return (meanDistance, overlapSeconds); (+inf, 0) when lifespans are
    *         disjoint. Both series must be non-empty.
    */
  def timeSyncStats(a: Series, b: Series): (Double, Long) = {
    val aTs = a.ts; val aXs = a.xs; val aYs = a.ys
    val bTs = b.ts; val bXs = b.xs; val bYs = b.ys
    val lo = math.max(aTs.head, bTs.head)
    val hi = math.min(aTs.last, bTs.last)
    if (lo > hi) return (Double.PositiveInfinity, 0L)
    var sum = 0.0
    var n = 0
    var j = 0 // pointer into b, invariant: bTs(j) <= t target when possible
    var i = 0
    while (i < aTs.length) {
      val t = aTs(i)
      if (t >= lo && t <= hi) {
        while (j + 1 < bTs.length && bTs(j + 1) <= t) j += 1
        val (bx, by) =
          if (bTs(j) == t || j + 1 >= bTs.length) (bXs(j), bYs(j))
          else {
            val t0 = bTs(j); val t1 = bTs(j + 1)
            val f = (t - t0).toDouble / (t1 - t0).toDouble
            (bXs(j) + f * (bXs(j + 1) - bXs(j)), bYs(j) + f * (bYs(j + 1) - bYs(j)))
          }
        val dx = aXs(i) - bx
        val dy = aYs(i) - by
        sum += math.sqrt(dx * dx + dy * dy)
        n += 1
      }
      i += 1
    }
    if (n == 0) (Double.PositiveInfinity, 0L) else (sum / n, hi - lo)
  }

  /** Distance of `a` to `b` under the coverage predicate: the mean time-sync
    * distance when their common lifespan is at least `minOverlapFrac` of
    * `a`'s lifespan, +inf otherwise. `a` is *covered* by `b` when this is at
    * most ε — the comparability predicate of both SaCO sampling
    * (suppression) and greedy cluster assignment.
    */
  def coverDist(a: Series, b: Series, minOverlapFrac: Double): Double = {
    val (d, overlap) = timeSyncStats(a, b)
    if (d.isInfinite) Double.PositiveInfinity
    else {
      val dur = math.max(1L, a.duration)
      if (overlap.toDouble / dur >= minOverlapFrac) d else Double.PositiveInfinity
    }
  }
}
