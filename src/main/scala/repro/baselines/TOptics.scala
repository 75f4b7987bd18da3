package repro.baselines

import repro.model.{Series, TrajDistance}

import scala.collection.mutable

/** T-OPTICS (Nanni & Pedreschi 2006): time-focused clustering of *whole*
  * trajectories — OPTICS over the time-synchronized trajectory distance.
  *
  * Demonstrated in scenario 1 as a related method. Its structural limitation
  * (vs. sub-trajectory clustering) is that an object belongs to exactly one
  * cluster for its entire lifespan, so partial co-movement is averaged away —
  * the E3 quality table quantifies this.
  */
object TOptics {

  final case class Params(minPts: Int = 3, epsExtract: Double = 8.0)

  /** OPTICS ordering + reachability, then threshold extraction.
    * @param trajs whole trajectories (votes are not read)
    * @return cluster label per input trajectory (-1 = noise)
    */
  def run(trajs: Array[Series], p: Params): Array[Int] = {
    val n = trajs.length
    if (n == 0) return Array.empty

    // Pairwise time-sync distance matrix (incomparable pairs = +inf).
    val d = Array.ofDim[Double](n, n)
    for (i <- 0 until n; j <- i until n) {
      val v = if (i == j) 0.0
      else TrajDistance.timeSyncStats(trajs(i), trajs(j))._1
      d(i)(j) = v; d(j)(i) = v
    }

    val coreDist = Array.tabulate(n) { i =>
      val ds = (0 until n).filter(_ != i).map(d(i)(_)).sorted
      if (ds.length < p.minPts) Double.PositiveInfinity else ds(p.minPts - 1)
    }

    val reach = Array.fill(n)(Double.PositiveInfinity)
    val processed = Array.fill(n)(false)
    val order = mutable.ArrayBuffer.empty[Int]

    for (start <- 0 until n if !processed(start)) {
      processed(start) = true
      order += start
      val seeds = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by[(Double, Int), Double](_._1).reverse)
      def update(center: Int): Unit = {
        val cd = coreDist(center)
        if (!cd.isInfinite) {
          for (o <- 0 until n if !processed(o)) {
            val nr = math.max(cd, d(center)(o))
            if (nr < reach(o)) { reach(o) = nr; seeds.enqueue((nr, o)) }
          }
        }
      }
      update(start)
      while (seeds.nonEmpty) {
        val (_, next) = seeds.dequeue()
        if (!processed(next)) {
          processed(next) = true
          order += next
          update(next)
        }
      }
    }

    // Threshold extraction over the ordering.
    val labels = Array.fill(n)(-1)
    var cid = -1
    for (idx <- order) {
      if (reach(idx) > p.epsExtract) {
        if (coreDist(idx) <= p.epsExtract) { cid += 1; labels(idx) = cid }
        else labels(idx) = -1
      } else labels(idx) = math.max(cid, 0)
    }
    labels
  }
}
