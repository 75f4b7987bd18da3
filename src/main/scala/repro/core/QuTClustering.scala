package repro.core

import repro.model.{Assignment, SubTraj}
import repro.retratree.{ReTraTree, SubChunkClustering}

import scala.collection.mutable

/** Query-based Trajectory Clustering (QuT-Clustering, [10]) — the paper's
  * second core module: `SELECT QUT(D, Wi, We, τ, δ, t, d, γ)`.
  *
  * Given a ReTraTree over D and a temporal period W = [Wi, We):
  *  - chunks fully inside W reuse their stored level-3 clusterings verbatim;
  *  - chunks partially covered are re-clustered on their clipped portion only
  *    — crucially reusing the stored votes (clipping cannot change a vote),
  *    so only segmentation + SaCO are repeated, never the voting pass;
  *  - clusters of consecutive chunks whose representatives meet at the shared
  *    boundary (within the clustering ε of each other, within the
  *    segmentation max-gap of the border) are merged into one time-spanning
  *    cluster.
  */
object QuTClustering {

  /** One output cluster: a global id, the representatives contributing to it
    * (one per constituent chunk-level cluster), and its member count.
    */
  final case class Cluster(id: Int, reps: Array[SubTraj], nMembers: Int) {
    def tStart: Long = reps.map(_.tStart).min
    def tEnd: Long   = reps.map(_.tEnd).max
  }

  /** The answer, and how many queried chunks reused their stored level-3
    * clusterings or were re-clustered from level 4.
    */
  final case class Result(clusters: Array[Cluster],
                          outliers: Array[Assignment],
                          nReusedChunks: Int, nRecomputedChunks: Int) {
    def nClusters: Int = clusters.length
    def nOutliers: Int = outliers.length
  }

  /** Answer QUT over the tree for W = [w0, w1). */
  def query(tree: ReTraTree, w0: Long, w1: Long): Result = {
    require(w0 < w1, s"empty window [$w0, $w1)")
    val p = tree.params.s2t

    val c0 = math.floorDiv(w0, tree.params.tau)
    val c1 = math.floorDiv(w1 - 1, tree.params.tau)

    // Per-chunk clusterings over W: (chunkId, sub-chunk clusterings).
    val perChunk = mutable.ArrayBuffer.empty[(Long, Vector[SubChunkClustering])]
    var reused = 0; var recomputed = 0

    for (chunkId <- c0 to c1) {
      tree.chunks.get(chunkId) match {
        case None => () // no data in this period
        case Some(cc) =>
          val fullyCovered = w0 <= tree.chunkStart(chunkId) && tree.chunkEnd(chunkId) <= w1
          if (fullyCovered) {
            perChunk += ((chunkId, cc.subChunks)); reused += 1
          } else {
            val lo = math.max(w0, tree.chunkStart(chunkId))
            val hi = math.min(w1, tree.chunkEnd(chunkId))
            // Stored votes are reused; only samples outside W are dropped.
            val clipped = tree.loadChunk(chunkId).flatMap(_.clip(lo, hi))
            perChunk += ((chunkId, tree.clusterSeries(chunkId, clipped))); recomputed += 1
          }
      }
    }

    // Merge step: union-find over chunk-level clusters keyed by
    // (chunkId, subChunkId, repIdx).
    val (clusters, outliers) = {
      type Key = (Long, Int, Int)
      val parent = mutable.Map.empty[Key, Key]
      def find(k: Key): Key = { val p0 = parent.getOrElse(k, k); if (p0 == k) k else { val r = find(p0); parent(k) = r; r } }
      def union(a: Key, b: Key): Unit = { val ra = find(a); val rb = find(b); if (ra != rb) parent(ra) = rb }

      val repOf = mutable.Map.empty[Key, SubTraj]
      val membersOf = mutable.Map.empty[Key, Int]
      val allOutliers = mutable.ArrayBuffer.empty[Assignment]
      for ((chunkId, scs) <- perChunk; sc <- scs) {
        sc.reps.zipWithIndex.foreach { case (r, i) => repOf(((chunkId, sc.subChunkId, i))) = r }
        val counts = sc.assignments.filter(_.clusterId != Assignment.Outlier)
          .groupBy(_.clusterId).map { case (c, as) => c -> as.length }
        sc.reps.indices.foreach(i => membersOf(((chunkId, sc.subChunkId, i))) = counts.getOrElse(i, 0))
        allOutliers ++= sc.assignments.filter(_.clusterId == Assignment.Outlier)
      }

      // Try to merge clusters of chunk c with clusters of chunk c+1 whose
      // representatives meet at the shared border.
      val byChunk = perChunk.toMap
      for (chunkId <- c0 until c1; scsA <- byChunk.get(chunkId); scsB <- byChunk.get(chunkId + 1)) {
        val border = tree.chunkEnd(chunkId)
        for {
          scA <- scsA; (rA, iA) <- scA.reps.zipWithIndex
          if border - rA.tEnd <= p.maxGap
          scB <- scsB; (rB, iB) <- scB.reps.zipWithIndex
          if rB.tStart - border <= p.maxGap
        } {
          val dx = rA.xs.last - rB.xs.head
          val dy = rA.ys.last - rB.ys.head
          if (math.sqrt(dx * dx + dy * dy) <= p.eps)
            union((chunkId, scA.subChunkId, iA), (chunkId + 1, scB.subChunkId, iB))
        }
      }

      val groups = repOf.keys.toSeq.groupBy(find)
      val clusters = groups.toSeq
        .sortBy { case (_, ks) => ks.min }
        .zipWithIndex
        .map { case ((_, ks), id) =>
          val sortedKs = ks.sorted
          Cluster(id, sortedKs.map(repOf).toArray, sortedKs.map(membersOf).sum)
        }
        .toArray
      (clusters, allOutliers.toArray)
    }

    Result(clusters, outliers, reused, recomputed)
  }
}
