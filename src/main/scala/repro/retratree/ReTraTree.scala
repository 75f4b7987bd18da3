package repro.retratree

import org.apache.spark.sql.DataFrame
import repro.Timing.span
import repro.core.S2TClustering
import repro.model.{Assignment, Series, SubTraj, TrajPoint}
import repro.voting.{Segmentation, Voting}

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream}
import java.nio.file.{Files, Path, Paths}
import scala.collection.immutable.SortedMap
import scala.collection.mutable.ArrayBuffer
import scala.util.Using

/** Level-3 node: the clusters of one lifespan sub-chunk — the sampling set
  * (representatives) and the assignment of every sub-trajectory to a
  * representative or to the outlier bucket.
  */
final case class SubChunkClustering(reps: Array[SubTraj], assignments: Array[Assignment])

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
}

/** ReTraTree — the hierarchical structure behind QuT-Clustering [10].
  *
  * Four levels, as in the paper:
  *  1. temporal chunks of duration τ (equi-width periods of the horizon);
  *  2. lifespan sub-chunks inside each chunk (sub-trajectories grouped by
  *     where in the chunk they live);
  *  3. per-sub-chunk clusters: representatives + member assignments,
  *     produced by the S2T machinery (this is the in-memory part);
  *  4. data storage: the voted samples, one file per chunk under `dataDir`
  *     (the disk-partition analog of `pg3D-Rtree-k`); retrieval reads that
  *     one file.
  *
  * Temporal chunking has a structural consequence this implementation leans
  * on: a vote at time t only involves objects alive at t, so voting never
  * crosses a chunk boundary, and stored votes stay exact under any clipping
  * of the query window W. QuT therefore **never re-votes** — that is the
  * source of its speedup over the range-query+S2T baseline.
  */
final class ReTraTree(val params: ReTraTree.Params, val dataDir: String) {

  var chunks: SortedMap[Long, ChunkClustering] = SortedMap.empty

  def chunkStart(chunkId: Long): Long = chunkId * params.tau
  def chunkEnd(chunkId: Long): Long = (chunkId + 1) * params.tau
  def subChunkOf(chunkId: Long, tStart: Long): Int = {
    val w = math.max(1L, params.tau / ReTraTree.SubChunksPerChunk)
    math.min(ReTraTree.SubChunksPerChunk - 1, ((tStart - chunkStart(chunkId)) / w).toInt)
  }

  /** One series cut at chunk borders: (chunk id, its samples there) in chunk
    * order. The build and inserts both split trajectories this way.
    */
  def pieces(s: Series): Array[(Long, Series)] =
    s.ts.map(math.floorDiv(_, params.tau)).distinct
      .flatMap(c => s.clip(chunkStart(c), chunkEnd(c)).map(c -> _))

  private def chunkFile(chunkId: Long): Path = Paths.get(dataDir, s"chunk_$chunkId.l4")

  /** Read one chunk's voted samples back from its level-4 file, in the order
    * the build clustered them; empty for a chunk that only inserts created.
    */
  def loadChunk(chunkId: Long): Array[Series] = {
    val f = chunkFile(chunkId)
    if (Files.exists(f)) ReTraTree.readChunk(f) else Array.empty
  }

  /** Cluster the given (already voted) series of one chunk: segmentation,
    * then SaCO per lifespan sub-chunk. Shared by build, incremental
    * re-clustering, and QuT boundary recomputation.
    */
  def clusterSeries(chunkId: Long, series: Array[Series]): Vector[SubChunkClustering] = {
    val subs = series.flatMap(Segmentation.segmentOne(_, params.s2t.segmentation))
    subs.groupBy(s => subChunkOf(chunkId, s.tStart)).toVector.sortBy(_._1).map {
      case (_, scSubs) =>
        val (reps, assignments) = S2TClustering.localPhases(scSubs, params.s2t)
        SubChunkClustering(reps, assignments)
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
    * distinct timestamps, and repeat no (object, t) sample that an outlier
    * partition still buffers; otherwise the tree is left unchanged and an
    * `IllegalArgumentException` is thrown.
    */
  def insertTrajectory(pts: Array[TrajPoint]): Unit = {
    require(pts.nonEmpty, "cannot insert an empty trajectory")
    require(pts.forall(p => p.x.isFinite && p.y.isFinite),
      s"non-finite coordinate in the trajectory of object ${pts.head.objId}")
    val s = Series.fromRows(pts.map(p => (p.objId, p.t, p.x, p.y, 0.0)))
    require(s.ts.indices.drop(1).forall(i => s.ts(i) > s.ts(i - 1)),
      s"duplicate timestamp in the trajectory of object ${s.objId}")
    // A buffered sample at t sits in chunk floorDiv(t, τ), so only the chunks
    // of this trajectory's pieces can hold one of its (object, t) samples.
    val ps = pieces(s)
    val buffered = ps.iterator.flatMap(p => chunks.get(p._1)).flatMap(_.pendingOutliers)
      .filter(_.objId == s.objId).flatMap(_.ts).find(java.util.Arrays.binarySearch(s.ts, _) >= 0)
    require(buffered.isEmpty, s"object ${s.objId} already has a buffered sample at t=${buffered.get}")
    for ((chunkId, piece) <- ps) {
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
    * clusterings are appended to level 3 and the buffer is drained.
    */
  def reclusterOutliers(cc: ChunkClustering): Unit = {
    if (cc.pendingOutliers.isEmpty) return
    val raw = cc.pendingOutliers.flatMap(vs =>
      vs.ts.indices.map(i => TrajPoint(vs.objId, vs.ts(i), vs.xs(i), vs.ys(i)))).toArray
    val votes = Voting.votesLocal(raw, params.s2t.sigma)
    val series = cc.pendingOutliers.map(vs =>
      vs.copy(votes = vs.ts.indices.map(i => votes((vs.objId, vs.ts(i)))).toArray)).toArray
    // Back-propagate: the new sub-chunk clusterings follow the existing ones.
    cc.subChunks = cc.subChunks ++ clusterSeries(cc.chunkId, series)
    cc.pendingOutliers.clear()
  }
}

object ReTraTree {

  /** Lifespan sub-chunks per chunk — level 2. */
  val SubChunksPerChunk: Int = 2

  /** @param tau                  chunk duration (seconds) — level 1
    * @param reclusterThreshold   outlier-partition size that triggers S2T
    * @param s2t                  parameters of the clustering machinery
    */
  final case class Params(
      tau: Long,
      reclusterThreshold: Int = 16,
      s2t: S2TClustering.Params = S2TClustering.Params()
  ) {
    require(tau > 0, s"tau must be positive, got $tau")
    require(reclusterThreshold >= 1, s"reclusterThreshold must be at least 1, got $reclusterThreshold")
  }

  /** Build the tree over a MOD DataFrame (obj_id, t, x, y): one global
    * voting pass (chunking cannot change votes), [[Voting.votedSeries]], cut
    * into chunk [[pieces]]; one level-4 file per chunk under `dataDir`
    * (created if missing, cleared of an earlier tree's level 4); then
    * segmentation + SaCO per chunk on the driver, as in Hermes. Its three
    * steps are spans, the one-time preprocessing cost E2 reports.
    */
  def build(points: DataFrame, params: Params, dataDir: String): ReTraTree = {
    val tree = new ReTraTree(params, dataDir)
    val byChunk = span("voting") {
      Voting.votedSeries(points, params.s2t.sigma).flatMap(tree.pieces)
        .groupBy(_._1).toSeq.sortBy(_._1)
        .map { case (chunkId, pieces) => chunkId -> pieces.map(_._2) }
    }
    span("write") {
      val dir = Files.createDirectories(Paths.get(dataDir))
      Using.resource(Files.newDirectoryStream(dir, "chunk_*.l4"))(_.forEach(Files.delete(_)))
      for ((chunkId, series) <- byChunk) writeChunk(tree.chunkFile(chunkId), series)
    }
    span("cluster") {
      for ((chunkId, series) <- byChunk) {
        val cc = new ChunkClustering(chunkId)
        cc.subChunks = tree.clusterSeries(chunkId, series)
        tree.chunks = tree.chunks.updated(chunkId, cc)
      }
    }
    tree
  }

  /** Level-4 file layout: the number of series, then per series its object
    * id, its sample count n, and its columns t, x, y and vote (n values each).
    */
  private[retratree] def writeChunk(f: Path, series: Array[Series]): Unit =
    Using.resource(new DataOutputStream(new BufferedOutputStream(Files.newOutputStream(f)))) { out =>
      out.writeInt(series.length)
      for (s <- series) {
        out.writeLong(s.objId); out.writeInt(s.size)
        s.ts.foreach(out.writeLong(_)); Seq(s.xs, s.ys, s.votes).foreach(_.foreach(out.writeDouble(_)))
      }
    }

  private[retratree] def readChunk(f: Path): Array[Series] =
    Using.resource(new DataInputStream(new BufferedInputStream(Files.newInputStream(f)))) { in =>
      Array.fill(in.readInt()) {
        val (objId, n) = (in.readLong(), in.readInt())
        def doubles() = Array.fill(n)(in.readDouble())
        // Arguments are evaluated left to right: t, x, y, vote.
        Series(objId, Array.fill(n)(in.readLong()), doubles(), doubles(), doubles())
      }
    }
}
