package repro

/** The one wall-clock timer behind the phase timings of S2T, the
  * range-query baseline and the ReTraTree build, and the experiment tables.
  */
object Timing {

  /** Runs `body`; returns its result and its wall time in milliseconds. */
  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1000000L)
  }
}
