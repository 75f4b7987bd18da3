package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.Timing.timed
import repro.clustering.GreedyClustering
import repro.model.{Assignment, SubTraj}
import repro.sampling.Sampling
import repro.voting.{Segmentation, Voting}

/** Sampling-based Sub-Trajectory Clustering (S2T-Clustering, [9]) — the
  * paper's first core module.
  *
  * Two phases, four steps:
  *  1. NaTS:  Voting  →  Segmentation   (distributed: one shuffle by t for
  *            the vote kernel, one by object for segmentation)
  *  2. SaCO:  Sampling  →  GreedyClustering + outlier detection
  *            (sampling central over sub-trajectory descriptors, as in
  *             Hermes; assignment distributed)
  */
object S2TClustering {

  /** All tunables of the pipeline; defaults suit the synthetic MOD of
    * `TrajGen` (lane width 2, kernel σ=1.5 → a lane-mate votes ≈ 1).
    */
  final case class Params(
      sigma: Double = 1.5,
      lambda: Double = 2.0,
      minLen: Int = 4,
      maxGap: Long = 60L,
      eps: Double = 10.0,
      minOverlapFrac: Double = 0.5,
      maxReps: Int = 64,
      minAvgVote: Double = 1.0
  ) {
    def segmentation: Segmentation.Params = Segmentation.Params(lambda, minLen, maxGap)
    def sampling: Sampling.Params = Sampling.Params(eps, minOverlapFrac, maxReps, minAvgVote)
  }

  /** Wall-clock per phase, for the E1 runtime-breakdown table. */
  final case class Timings(votingMs: Long, segmentationMs: Long, samplingMs: Long,
                           clusteringMs: Long) {
    def totalMs: Long = votingMs + segmentationMs + samplingMs + clusteringMs
  }

  /** Full result: the segmentation, the sampling set (cluster ids = indices),
    * and the per-sub-trajectory assignments (outliers have clusterId -1).
    */
  final case class Result(subs: Array[SubTraj], reps: Array[SubTraj],
                          assignments: Array[Assignment], timings: Timings) {
    def nClusters: Int = reps.length
    def outliers: Array[Assignment] = assignments.filter(_.clusterId == Assignment.Outlier)
    /** Members per cluster id (clusters may be empty of non-rep members). */
    def clusterSizes: Map[Int, Int] =
      assignments.filter(_.clusterId != Assignment.Outlier).groupBy(_.clusterId)
        .map { case (c, as) => c -> as.length }
  }

  /** Run the whole pipeline on a MOD DataFrame (obj_id, t, x, y), resampled
    * on a common time grid.
    */
  def run(points: DataFrame, p: Params): Result = {
    val voted = Voting.votes(points, p.sigma).persist(StorageLevel.MEMORY_AND_DISK)
    val ((subs, tSeg), tVote) = try {
      val (_, tVote) = timed(voted.count()) // force, so the phase timing is honest
      (timed(Segmentation.segmentTrajectories(voted, p.segmentation).collect()), tVote)
    } finally voted.unpersist()
    val (reps, tSample) = timed { Sampling.select(subs, p.sampling) }
    val (assignments, tCluster) = timed {
      val spark = points.sparkSession
      import spark.implicits._
      GreedyClustering.assign(spark.createDataset(subs.toIndexedSeq), reps,
                              p.eps, p.minOverlapFrac).collect()
    }
    Result(subs, reps, assignments, Timings(tVote, tSeg, tSample, tCluster))
  }

  /** Driver-local SaCO + assignment over already-voted, already-segmented
    * data — the per-partition path used inside ReTraTree/QuT, where chunks
    * are small and job-dispatch overhead would dominate.
    */
  def localPhases(subs: Array[SubTraj], p: Params): (Array[SubTraj], Array[Assignment]) = {
    val reps = Sampling.select(subs, p.sampling)
    val assignments = GreedyClustering.assignLocal(subs, reps, p.eps, p.minOverlapFrac)
    (reps, assignments)
  }
}
