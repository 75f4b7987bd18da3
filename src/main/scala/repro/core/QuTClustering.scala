package repro.core

import repro.model.{Assignment, SubTraj}
import repro.retratree.ReTraTree

import scala.collection.mutable.ArrayBuffer

/** Query-based Trajectory Clustering (QuT-Clustering, [10]) — the paper's
  * second core module: `SELECT QUT(D, Wi, We, τ, δ, t, d, γ)`.
  *
  * Given a ReTraTree over D and a temporal period W = [Wi, We):
  *  - chunks fully inside W reuse their stored level-3 clusterings, counting
  *    the members that inserts appended;
  *  - chunks partially covered are re-clustered from their level-4 samples
  *    clipped to W, with the stored votes (clipping cannot change a vote), so
  *    they are never re-voted; inserts never reach level 4, so these miss them;
  *  - clusters of consecutive chunks whose representatives meet at the shared
  *    border (within ε of each other, within max-gap of the border) merge.
  */
object QuTClustering {

  /** A global id, the chunk-level representatives merged into it, and its member count. */
  final case class Cluster(id: Int, reps: Array[SubTraj], nMembers: Int) {
    def tStart: Long = reps.map(_.tStart).min
    def tEnd: Long   = reps.map(_.tEnd).max
  }

  /** The answer, and how many queried chunks were reused or re-clustered from level 4. */
  final case class Result(clusters: Array[Cluster], outliers: Array[Assignment],
                          nReusedChunks: Int, nRecomputedChunks: Int) {
    def nClusters: Int = clusters.length
    def nOutliers: Int = outliers.length
  }

  /** Answer QUT over the tree for W = [w0, w1). The chunk-level clusters form one table, a row
    * per representative in (chunk, sub-chunk, index) order. A chunk's rows are a range, numbered
    * as `ChunkClustering.allReps`, which inserts assign against and re-clustering only appends to.
    */
  def query(tree: ReTraTree, w0: Long, w1: Long): Result = {
    require(w0 < w1, s"empty window [$w0, $w1)")
    val reps = ArrayBuffer.empty[SubTraj]
    val members = ArrayBuffer.empty[Int]
    val outliers = ArrayBuffer.empty[Assignment]
    val ranges = ArrayBuffer.empty[(Long, Range)] // (chunk id, its rows)
    var reused = 0
    val tau = tree.params.tau
    for ((c, cc) <- tree.chunks.range(math.floorDiv(w0, tau), math.floorDiv(w1 - 1, tau) + 1)) {
      val (lo, hi) = (tree.chunkStart(c), tree.chunkEnd(c))
      val fullyCovered = w0 <= lo && hi <= w1
      val subChunks =
        if (fullyCovered) cc.subChunks
        else tree.clusterSeries(c, tree.loadChunk(c).flatMap(_.clip(math.max(w0, lo), math.min(w1, hi))))
      val from = reps.length
      for (sc <- subChunks) {
        val counts = new Array[Int](sc.reps.length)
        for (a <- sc.assignments)
          if (a.clusterId == Assignment.Outlier) outliers += a else counts(a.clusterId) += 1
        reps ++= sc.reps; members ++= counts
      }
      if (fullyCovered) { reused += 1; cc.appended.foreach(a => members(from + a.clusterId) += 1) }
      ranges += c -> (from until reps.length)
    }

    // Union-find between the rows of consecutive chunks; a root is its group's smallest row.
    val p = tree.params.s2t
    val parent = Array.tabulate(reps.length)(identity)
    def find(i: Int): Int = if (parent(i) == i) i else find(parent(i))
    def union(ra: Int, rb: Int): Unit = parent(math.max(ra, rb)) = math.min(ra, rb)
    for (((ca, as), (cb, bs)) <- ranges.zip(ranges.drop(1)) if cb == ca + 1; border = tree.chunkEnd(ca);
         i <- as if border - reps(i).tEnd <= p.maxGap; j <- bs if reps(j).tStart - border <= p.maxGap) {
      val (dx, dy) = (reps(i).xs.last - reps(j).xs.head, reps(i).ys.last - reps(j).ys.head)
      if (math.sqrt(dx * dx + dy * dy) <= p.eps) union(find(i), find(j))
    }

    val clusters = reps.indices.groupBy(find).toArray.sortBy(_._1).zipWithIndex.map {
      case ((_, rows), id) => Cluster(id, rows.map(reps).toArray, rows.map(members).sum)
    }
    Result(clusters, outliers.toArray, reused, ranges.length - reused)
  }
}
