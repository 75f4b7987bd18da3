package repro.clustering

import org.apache.spark.sql.Dataset
import repro.model.{Assignment, SubTraj, TrajDistance}

/** The Clustering-and-Outlier step of SaCO (phase 2b of S2T-Clustering).
  *
  * Clusters are built "around" the sampling-set representatives: every
  * sub-trajectory is assigned to the nearest representative that covers it
  * (time-sync distance ≤ eps over ≥ minOverlapFrac of its lifespan); a
  * sub-trajectory covered by no representative is an outlier.
  */
object GreedyClustering {

  /** Assign one sub-trajectory. `reps` indices are the cluster ids. */
  def assignOne(sub: SubTraj, reps: Array[SubTraj], eps: Double,
                minOverlapFrac: Double): Assignment = {
    var best = Assignment.Outlier
    var bestD = Double.PositiveInfinity
    var c = 0
    while (c < reps.length) {
      val d = TrajDistance.coverDist(sub.series, reps(c).series, minOverlapFrac)
      if (d < bestD) { bestD = d; best = c }
      c += 1
    }
    if (bestD <= eps) Assignment(sub.objId, sub.subId, best, bestD)
    else Assignment(sub.objId, sub.subId, Assignment.Outlier, Double.PositiveInfinity)
  }

  /** Driver-side assignment: the path of S2T and of every ReTraTree chunk. */
  def assignLocal(subs: Array[SubTraj], reps: Array[SubTraj], eps: Double,
                  minOverlapFrac: Double): Array[Assignment] =
    subs.map(assignOne(_, reps, eps, minOverlapFrac))

  /** Distributed assignment: the (small) representative set ships in the task
    * closure; each partition assigns its sub-trajectories independently. No
    * program path calls it; the benchmark's traced S2T run composes it.
    */
  def assign(subs: Dataset[SubTraj], reps: Array[SubTraj], eps: Double,
             minOverlapFrac: Double): Dataset[Assignment] = {
    val spark = subs.sparkSession
    import spark.implicits._
    subs.mapPartitions(_.map(assignOne(_, reps, eps, minOverlapFrac)))
  }
}
