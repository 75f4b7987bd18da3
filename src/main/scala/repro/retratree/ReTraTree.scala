package repro.retratree

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.Timing.timed
import repro.core.S2TClustering
import repro.model.{Assignment, Series, SubTraj, TrajPoint}
import repro.voting.{Segmentation, Voting}

import scala.collection.immutable.SortedMap
import scala.collection.mutable.ArrayBuffer

/** Level-3 node: the clusters of one lifespan sub-chunk — the sampling set
  * (representatives) and the assignment of every sub-trajectory to a
  * representative or to the outlier bucket.
  */
final case class SubChunkClustering(subChunkId: Int, reps: Array[SubTraj],
                                    assignments: Array[Assignment]) {
  def nClusters: Int = reps.length
  def nOutliers: Int = assignments.count(_.clusterId == Assignment.Outlier)
}

/** Levels 2–3 state of one temporal chunk: its sub-chunk clusterings, the
  * buffer of not-yet-clustered inserted trajectories, and appended member
  * assignments from incremental inserts.
  */
final class ChunkClustering(val chunkId: Long) {
  var subChunks: Vector[SubChunkClustering] = Vector.empty
  /** Trajectories inserted after build that matched an existing representative. */
  val appended: ArrayBuffer[Assignment] = ArrayBuffer.empty
  /** Inserted trajectories that matched nothing — the outlier partition. */
  val pendingOutliers: ArrayBuffer[Series] = ArrayBuffer.empty

  def allReps: Array[SubTraj] = subChunks.flatMap(_.reps).toArray
  def nClusters: Int = subChunks.map(_.nClusters).sum
  def nMembers: Int =
    subChunks.map(_.assignments.count(_.clusterId != Assignment.Outlier)).sum + appended.length
}

/** ReTraTree — the hierarchical structure behind QuT-Clustering [10].
  *
  * Four levels, as in the paper:
  *  1. temporal chunks of duration τ (equi-width periods of the horizon);
  *  2. lifespan sub-chunks inside each chunk (sub-trajectories grouped by
  *     where in the chunk they live);
  *  3. per-sub-chunk clusters: representatives + member assignments,
  *     produced by the S2T machinery (this is the in-memory part);
  *  4. data storage: the voted samples, written as parquet partitioned by
  *     chunk id (the disk-partition analog of `pg3D-Rtree-k`); retrieval is
  *     chunk-partition pruning.
  *
  * Temporal chunking has a structural consequence this implementation leans
  * on: a vote at time t only involves objects alive at t, so voting never
  * crosses a chunk boundary, and stored votes stay exact under any clipping
  * of the query window W. QuT therefore **never re-votes** — that is the
  * source of its speedup over the range-query+S2T baseline.
  */
final class ReTraTree(val params: ReTraTree.Params, val dataDir: String,
                      @transient val spark: SparkSession) extends Serializable {

  var chunks: SortedMap[Long, ChunkClustering] = SortedMap.empty

  def chunkStart(chunkId: Long): Long = chunkId * params.tau
  def chunkEnd(chunkId: Long): Long = (chunkId + 1) * params.tau
  def subChunkOf(chunkId: Long, tStart: Long): Int = {
    val w = math.max(1L, params.tau / params.subChunksPerChunk)
    math.min(params.subChunksPerChunk - 1, ((tStart - chunkStart(chunkId)) / w).toInt)
  }

  /** Total clusters currently indexed (level 3 cardinality). */
  def nClusters: Int = chunks.valuesIterator.map(_.nClusters).sum

  /** Read one chunk's voted samples back from the level-4 parquet partition.
    * Partition pruning applies — only that chunk's files are scanned.
    */
  def loadChunk(chunkId: Long): Array[Series] = {
    import spark.implicits._
    spark.read.parquet(dataDir)
      .where(col("chunk_id") === chunkId)
      .select("obj_id", "t", "x", "y", "vote").as[(Long, Long, Double, Double, Double)]
      .collect()
      .groupBy(_._1)
      .map { case (_, rows) => Series.fromRows(rows) }
      .toArray
  }

  /** Cluster the given (already voted) series of one chunk: segmentation,
    * then SaCO per lifespan sub-chunk. Shared by build, incremental
    * re-clustering, and QuT boundary recomputation.
    */
  def clusterSeries(chunkId: Long, series: Array[Series]): Vector[SubChunkClustering] = {
    val subs = series.flatMap(Segmentation.segmentOne(_, params.s2t.segmentation))
    subs.groupBy(s => subChunkOf(chunkId, s.tStart)).toVector.sortBy(_._1).map {
      case (scId, scSubs) =>
        val (reps, assignments) = S2TClustering.localPhases(scSubs, params.s2t)
        SubChunkClustering(scId, reps, assignments)
    }
  }

  /** Insert one trajectory after the build (the incremental path of Fig. 2).
    *
    * The trajectory is clipped per chunk; each piece is matched against the
    * chunk's existing representatives. A match is archived as an appended
    * member; a miss lands in the chunk's outlier partition. When an outlier
    * partition reaches `reclusterThreshold` trajectories, S2T takes action
    * on it: chunk-local voting over the buffered trajectories, segmentation,
    * sampling — the new representatives are back-propagated into the
    * in-memory level 3.
    *
    * The samples must belong to one object, have finite coordinates and
    * distinct timestamps; otherwise the tree is left unchanged and an
    * `IllegalArgumentException` is thrown.
    */
  def insertTrajectory(pts: Array[TrajPoint]): Unit = {
    require(pts.nonEmpty, "cannot insert an empty trajectory")
    require(pts.forall(p => p.x.isFinite && p.y.isFinite),
      s"non-finite coordinate in the trajectory of object ${pts.head.objId}")
    val s = Series.fromRows(pts.map(p => (p.objId, p.t, p.x, p.y, 0.0)))
    require(s.ts.indices.drop(1).forall(i => s.ts(i) > s.ts(i - 1)),
      s"duplicate timestamp in the trajectory of object ${s.objId}")
    for (chunkId <- s.ts.map(math.floorDiv(_, params.tau)).distinct;
         piece <- s.clip(chunkStart(chunkId), chunkEnd(chunkId))) {
      val cc = chunks.getOrElse(chunkId, {
        val fresh = new ChunkClustering(chunkId)
        chunks = chunks.updated(chunkId, fresh)
        fresh
      })
      val a = repro.clustering.GreedyClustering.assignOne(SubTraj(piece, Int.MaxValue),
        cc.allReps, params.s2t.eps, params.s2t.minOverlapFrac)
      if (a.clusterId != Assignment.Outlier) cc.appended += a
      else {
        cc.pendingOutliers += piece
        if (cc.pendingOutliers.length >= params.reclusterThreshold) reclusterOutliers(cc)
      }
    }
  }

  /** S2T over a chunk's outlier partition: chunk-local voting (exact — votes
    * never cross chunks), then the usual phases; resulting sub-chunk
    * clusterings are appended to level 3 and the buffer is drained back to
    * whatever remained outlier.
    */
  def reclusterOutliers(cc: ChunkClustering): Unit = {
    if (cc.pendingOutliers.isEmpty) return
    val raw = cc.pendingOutliers.flatMap(vs =>
      vs.ts.indices.map(i => TrajPoint(vs.objId, vs.ts(i), vs.xs(i), vs.ys(i)))).toArray
    val votes = Voting.votesLocal(raw, params.s2t.sigma)
    val series = cc.pendingOutliers.map(vs =>
      vs.copy(votes = vs.ts.indices.map(i => votes((vs.objId, vs.ts(i)))).toArray)).toArray
    val clusterings = clusterSeries(cc.chunkId, series)
    cc.pendingOutliers.clear()
    // Back-propagate: keep the new sub-chunk clusterings alongside existing
    // ones (ids offset so they do not collide with build-time sub-chunks).
    val offset = if (cc.subChunks.isEmpty) 0 else cc.subChunks.map(_.subChunkId).max + 1
    val appendedScs = clusterings.map(sc => sc.copy(subChunkId = sc.subChunkId + offset))
    cc.subChunks = cc.subChunks ++ appendedScs
  }
}

object ReTraTree {

  /** @param tau                  chunk duration (seconds) — level 1
    * @param subChunksPerChunk    lifespan sub-chunks per chunk — level 2
    * @param reclusterThreshold   outlier-partition size that triggers S2T
    * @param s2t                  parameters of the clustering machinery
    */
  final case class Params(
      tau: Long,
      subChunksPerChunk: Int = 2,
      reclusterThreshold: Int = 16,
      s2t: S2TClustering.Params = S2TClustering.Params()
  ) { require(tau > 0, s"tau must be positive, got $tau") }

  /** Build timings (the one-time preprocessing cost, reported in E2). */
  final case class BuildStats(votingMs: Long, writeMs: Long, clusterMs: Long,
                              nChunks: Int) {
    def totalMs: Long = votingMs + writeMs + clusterMs
  }

  /** Build the tree over a MOD DataFrame (obj_id, t, x, y).
    *
    * One global Spark voting pass (chunking cannot change votes), a
    * partitioned parquet write (level 4), then per-chunk segmentation +
    * SaCO. Segmentation is distributed over (chunk, object) groups; the
    * central SaCO runs per chunk on the driver, as in Hermes.
    */
  def build(points: DataFrame, params: Params, dataDir: String): (ReTraTree, BuildStats) = {
    val spark = points.sparkSession
    import spark.implicits._

    val (voted, tVote) = timed {
      val v = Voting.votes(points, params.s2t.sigma)
        .withColumn("chunk_id", floor(col("t") / params.tau).cast("long"))
        .persist(StorageLevel.MEMORY_AND_DISK)
      v.count()
      v
    }
    val (_, tWrite) = timed {
      voted.write.mode("overwrite").partitionBy("chunk_id").parquet(dataDir)
    }

    val tree = new ReTraTree(params, dataDir, spark)
    val (_, tCluster) = timed {
      // Distributed per-(chunk, object) collection into voted series.
      val series = voted
        .select("chunk_id", "obj_id", "t", "x", "y", "vote")
        .as[(Long, Long, Long, Double, Double, Double)]
        .groupByKey(r => (r._1, r._2))
        .mapGroups { (key: (Long, Long), it: Iterator[(Long, Long, Long, Double, Double, Double)]) =>
          (key._1, Series.fromRows(it.map(r => (r._2, r._3, r._4, r._5, r._6)).toArray))
        }
        .collect()
      for ((chunkId, chunkSeries) <- series.groupBy(_._1).toSeq.sortBy(_._1)) {
        val cc = new ChunkClustering(chunkId)
        cc.subChunks = tree.clusterSeries(chunkId, chunkSeries.map(_._2))
        tree.chunks = tree.chunks.updated(chunkId, cc)
      }
    }
    voted.unpersist()
    (tree, BuildStats(tVote, tWrite, tCluster, tree.chunks.size))
  }
}
