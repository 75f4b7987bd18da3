package repro.perfbench

import scala.util.Random

/** A QuT query window W = [w0, w1), `widthChunks` chunks of τ long. An
  * aligned window starts and ends on chunk borders; an unaligned one is
  * shifted into its first chunk, so it clips a chunk at each end.
  */
final case class Window(w0: Long, w1: Long, aligned: Boolean, widthChunks: Int)

/** Seeded generation of QuT windows and the chunk arithmetic QuT applies to
  * them, restated from the window geometry alone.
  */
object Windows {

  /** (reused, recomputed) chunk counts for `w` over chunks of length `tau`:
    * a present chunk fully inside W is reused from level 3, a present chunk
    * W only partly covers is recomputed from level 4, and an absent chunk
    * counts for neither.
    */
  def expectedCounts(w: Window, tau: Long, present: Long => Boolean): (Int, Int) = {
    val c0 = math.floorDiv(w.w0, tau)
    val c1 = math.floorDiv(w.w1 - 1, tau)
    val (full, partial) = (c0 to c1).filter(present)
      .partition(c => w.w0 <= c * tau && (c + 1) * tau <= w.w1)
    (full.size, partial.size)
  }

  /** The chunks `w` only partly covers: those QuT re-clusters from level 4. */
  def boundaryChunks(w: Window, tau: Long, present: Long => Boolean): Seq[Long] = {
    val c0 = math.floorDiv(w.w0, tau)
    val c1 = math.floorDiv(w.w1 - 1, tau)
    (c0 to c1).filter(c => present(c) && !(w.w0 <= c * tau && (c + 1) * tau <= w.w1))
  }

  /** An aligned window of `k` whole chunks at a random place inside chunks
    * [lo, hi].
    */
  def aligned(rnd: Random, tau: Long, lo: Long, hi: Long, k: Int): Window = {
    require(k >= 1 && k <= hi - lo + 1, s"$k chunks do not fit in [$lo, $hi]")
    val c = lo + rnd.nextInt((hi - lo + 1 - k + 1).toInt)
    Window(c * tau, (c + k) * tau, aligned = true, k)
  }

  /** An unaligned window `k` chunks long at a random place inside chunks
    * [lo, hi], shifted by 1 to τ − 1 seconds past a chunk border, so both of
    * its ends fall strictly inside a chunk.
    */
  def unaligned(rnd: Random, tau: Long, lo: Long, hi: Long, k: Int): Window = {
    require(k >= 1 && k <= hi - lo, s"an unaligned window of $k chunks does not fit in [$lo, $hi]")
    require(tau >= 2, s"tau must be at least 2, got $tau")
    val c = lo + rnd.nextInt((hi - lo - k + 1).toInt)
    val off = 1 + (rnd.nextLong() & Long.MaxValue) % (tau - 1)
    Window(c * tau + off, (c + k) * tau + off, aligned = false, k)
  }
}
