package repro.baselines

import repro.model.TrajPoint

import scala.collection.mutable

/** Convoy discovery (Jeung et al., VLDB 2008) — the co-movement pattern
  * family the demo's scenario 1 also exhibits, and whose "hard-to-tune
  * parameters" the paper's approach eliminates.
  *
  * Coherent-Moving-Cluster style: density-connect (DBSCAN) the objects at
  * every timestamp, then intersect clusters across consecutive timestamps; a
  * candidate that keeps at least `minObjs` common objects for at least
  * `minDuration` consecutive timestamps is a convoy.
  */
object Convoys {

  /** @param eps          DBSCAN connection radius at one timestamp
    * @param minObjs      m — minimum convoy cardinality (also DBSCAN minPts)
    * @param minDuration  k — minimum number of consecutive timestamps
    * @param maxGap       a candidate not seen for longer than this closes
    *                     (convoys require *consecutive* co-movement)
    */
  final case class Params(eps: Double = 6.0, minObjs: Int = 3, minDuration: Int = 3,
                          maxGap: Long = 60L)

  final case class Convoy(objIds: Set[Long], tStart: Long, tEnd: Long)

  /** DBSCAN over one timestamp's positions; returns clusters of object ids
    * (noise objects belong to no cluster).
    */
  def snapshotClusters(pts: Array[TrajPoint], eps: Double, minPts: Int): Seq[Set[Long]] = {
    val eps2 = eps * eps
    val labels = Dbscan.labels(pts.length, minPts, i =>
      pts.indices.filter { j =>
        j != i && {
          val dx = pts(i).x - pts(j).x; val dy = pts(i).y - pts(j).y
          dx * dx + dy * dy <= eps2
        }
      })
    (0 to labels.maxOption.getOrElse(-1))
      .map(c => pts.indices.filter(labels(_) == c).map(pts(_).objId).toSet)
  }

  /** Discover all convoys in a MOD (driver-resident). Timestamps are the
    * distinct `t` values in ascending order; objects absent at a timestamp
    * simply drop out of the intersection.
    */
  def run(points: Array[TrajPoint], p: Params): Seq[Convoy] = {
    require(p.minObjs >= 2 && p.minDuration >= 1, s"degenerate convoy params: $p")
    val byT = points.groupBy(_.t).toSeq.sortBy(_._1)

    // candidate = (objects, startT, lastT, steps)
    var candidates = Seq.empty[(Set[Long], Long, Long, Int)]
    val out = mutable.ArrayBuffer.empty[Convoy]

    for ((t, pts) <- byT) {
      val clusters = snapshotClusters(pts, p.eps, p.minObjs)
      val next = mutable.ArrayBuffer.empty[(Set[Long], Long, Long, Int)]
      val extendedClusters = mutable.Set.empty[Int]
      for (cand @ (objs, t0, lastT, steps) <- candidates) {
        var extended = false
        if (t - lastT <= p.maxGap) { // consecutive co-movement only
          for ((cl, ci) <- clusters.zipWithIndex) {
            val common = objs.intersect(cl)
            if (common.size >= p.minObjs) {
              next += ((common, t0, t, steps + 1))
              extendedClusters += ci
              extended = true
            }
          }
        }
        if (!extended && steps >= p.minDuration) out += Convoy(objs, t0, cand._3)
      }
      for ((cl, ci) <- clusters.zipWithIndex if !extendedClusters(ci)) {
        next += ((cl, t, t, 1))
      }
      // dedupe identical candidates (same objects, same start)
      candidates = next.distinctBy(c => (c._1, c._2)).toSeq
    }
    for ((objs, t0, t1, steps) <- candidates if steps >= p.minDuration)
      out += Convoy(objs, t0, t1)
    // keep maximal convoys only: drop a convoy contained in another with the
    // same or wider time span
    out.toSeq.filterNot { c =>
      out.exists(o => (o ne c) && c.objIds.subsetOf(o.objIds) &&
        o.tStart <= c.tStart && c.tEnd <= o.tEnd &&
        (o.objIds != c.objIds || o.tStart != c.tStart || o.tEnd != c.tEnd))
    }.distinct
  }
}
