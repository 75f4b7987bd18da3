package repro.baselines

import repro.model.Series

import scala.collection.mutable

/** TRACLUS (Lee, Han, Whang — SIGMOD 2007): the partition-and-group
  * framework the paper positions itself against. Spatial-only — the temporal
  * dimension is ignored, which is exactly the limitation S2T overcomes.
  *
  * Faithful to [5]: MDL-based trajectory partitioning into characteristic
  * line segments, then density-based clustering (DBSCAN) of segments under
  * the perpendicular + parallel + angular segment distance, with a
  * trajectory-cardinality check per cluster.
  */
object Traclus {

  /** A directed line segment of trajectory `objId`, covering original sample
    * indices [i0, i1] (inclusive) — kept so cluster labels can be propagated
    * back to points.
    */
  final case class Seg(objId: Long, x1: Double, y1: Double, x2: Double, y2: Double,
                       i0: Int, i1: Int) {
    def len: Double = math.hypot(x2 - x1, y2 - y1)
  }

  final case class Params(eps: Double = 8.0, minLns: Int = 3)

  // ------------------------------------------------------------ partitioning

  private def log2(v: Double): Double = if (v <= 1.0) 0.0 else math.log(v) / math.log(2.0)

  private def dist(ax: Double, ay: Double, bx: Double, by: Double): Double =
    math.hypot(ax - bx, ay - by)

  /** Perpendicular distance from point (px,py) to the (sx,sy)-(ex,ey) line. */
  private def perp(sx: Double, sy: Double, ex: Double, ey: Double,
                   px: Double, py: Double): Double = {
    val vx = ex - sx; val vy = ey - sy
    val l2 = vx * vx + vy * vy
    if (l2 < 1e-12) dist(sx, sy, px, py)
    else math.abs(vx * (py - sy) - vy * (px - sx)) / math.sqrt(l2)
  }

  /** MDL cost of representing xs/ys[lo..hi] by the single segment lo→hi:
    * L(H), the log2 of its length, plus L(D|H), which sums over each original
    * segment it replaces the log2 of that segment's perpendicular and angular
    * distances to it ([5], §4.1).
    */
  private def mdlPar(xs: Array[Double], ys: Array[Double], lo: Int, hi: Int): Double = {
    var cost = log2(dist(xs(lo), ys(lo), xs(hi), ys(hi)))
    var i = lo
    while (i < hi) {
      cost += log2(perpSegDist(xs(lo), ys(lo), xs(hi), ys(hi), xs(i), ys(i), xs(i + 1), ys(i + 1))) +
        log2(angularDist(xs(lo), ys(lo), xs(hi), ys(hi), xs(i), ys(i), xs(i + 1), ys(i + 1)))
      i += 1
    }
    cost
  }

  /** MDL cost of keeping every original segment in [lo, hi]. */
  private def mdlNoPar(xs: Array[Double], ys: Array[Double], lo: Int, hi: Int): Double = {
    var s = 0.0
    var i = lo
    while (i < hi) { s += log2(dist(xs(i), ys(i), xs(i + 1), ys(i + 1))); i += 1 }
    s
  }

  /** Approximate MDL partitioning: indices of characteristic points. */
  def characteristicPoints(xs: Array[Double], ys: Array[Double]): Array[Int] = {
    val n = xs.length
    if (n < 2) return Array.tabulate(n)(identity)
    val cps = mutable.ArrayBuffer(0)
    var start = 0
    var length = 1
    while (start + length <= n - 1) {
      val curr = start + length
      if (mdlPar(xs, ys, start, curr) > mdlNoPar(xs, ys, start, curr) && curr - 1 > start) {
        cps += curr - 1
        start = curr - 1
        length = 1
      } else length += 1
    }
    cps += n - 1
    cps.distinct.toArray
  }

  /** Partition one trajectory into characteristic segments. */
  def partition(objId: Long, xs: Array[Double], ys: Array[Double]): Array[Seg] = {
    val cps = characteristicPoints(xs, ys)
    cps.sliding(2).collect { case Array(a, b) =>
      Seg(objId, xs(a), ys(a), xs(b), ys(b), a, b)
    }.toArray
  }

  // ------------------------------------------------------- segment distance

  /** Perpendicular component between segment (s,e) [longer] and (p,q). */
  private def perpSegDist(sx: Double, sy: Double, ex: Double, ey: Double,
                          px: Double, py: Double, qx: Double, qy: Double): Double = {
    val l1 = perp(sx, sy, ex, ey, px, py)
    val l2 = perp(sx, sy, ex, ey, qx, qy)
    if (l1 + l2 < 1e-12) 0.0 else (l1 * l1 + l2 * l2) / (l1 + l2)
  }

  /** Angular component: ||shorter|| * sin(theta) (full length for >90°). */
  private def angularDist(sx: Double, sy: Double, ex: Double, ey: Double,
                          px: Double, py: Double, qx: Double, qy: Double): Double = {
    val v1x = ex - sx; val v1y = ey - sy
    val v2x = qx - px; val v2y = qy - py
    val l1 = math.hypot(v1x, v1y); val l2 = math.hypot(v2x, v2y)
    if (l1 < 1e-12 || l2 < 1e-12) return 0.0
    val cos = (v1x * v2x + v1y * v2y) / (l1 * l2)
    if (cos < 0) l2
    else l2 * math.sqrt(math.max(0.0, 1.0 - cos * cos))
  }

  /** Parallel component: how far the shorter segment's projections fall from
    * the longer segment's endpoints.
    */
  private def parallelDist(sx: Double, sy: Double, ex: Double, ey: Double,
                           px: Double, py: Double, qx: Double, qy: Double): Double = {
    val vx = ex - sx; val vy = ey - sy
    val l2 = vx * vx + vy * vy
    if (l2 < 1e-12) return math.min(dist(sx, sy, px, py), dist(sx, sy, qx, qy))
    def proj(ax: Double, ay: Double): Double = ((ax - sx) * vx + (ay - sy) * vy) / l2
    val len = math.sqrt(l2)
    def outside(f: Double): Double =
      math.min(math.abs(f), math.abs(f - 1.0)) * len
    math.min(outside(proj(px, py)), outside(proj(qx, qy)))
  }

  /** The TRACLUS segment distance (equal weights); longer segment is the base. */
  def segDistance(a: Seg, b: Seg): Double = {
    val (lng, sht) = if (a.len >= b.len) (a, b) else (b, a)
    perpSegDist(lng.x1, lng.y1, lng.x2, lng.y2, sht.x1, sht.y1, sht.x2, sht.y2) +
      parallelDist(lng.x1, lng.y1, lng.x2, lng.y2, sht.x1, sht.y1, sht.x2, sht.y2) +
      angularDist(lng.x1, lng.y1, lng.x2, lng.y2, sht.x1, sht.y1, sht.x2, sht.y2)
  }

  // ----------------------------------------------------------------- DBSCAN

  /** DBSCAN over segments: label per segment, -1 = noise. Clusters whose
    * members come from fewer than `minLns` distinct trajectories are
    * dissolved into noise (the |PTR| check of [5]).
    */
  def cluster(segs: Array[Seg], p: Params): Array[Int] = {
    val labels = Dbscan.labels(segs.length, p.minLns, i =>
      segs.indices.filter(j => j != i && segDistance(segs(i), segs(j)) <= p.eps))
    // |PTR| cardinality check
    val byCluster = segs.indices.groupBy(labels)
    for ((c, idxs) <- byCluster if c >= 0) {
      if (idxs.map(segs(_).objId).distinct.length < p.minLns) idxs.foreach(labels(_) = -1)
    }
    labels
  }

  /** Full pipeline over driver-resident trajectories (only their x/y are
    * read): returns the segments and their cluster labels.
    */
  def run(trajs: Seq[Series], p: Params): (Array[Seg], Array[Int]) = {
    val segs = trajs.toArray.flatMap(s => partition(s.objId, s.xs, s.ys))
    (segs, cluster(segs, p))
  }
}
