package repro

import scala.collection.immutable.ListMap
import scala.collection.mutable

/** Driver-side wall-clock spans, the one timing primitive of the program.
  * Code marks its phases with [[span]]; a caller that wants their times runs
  * the call inside [[record]]. Outside a recording a span only runs its body.
  * A recording belongs to the thread that opened it, and a nested `record`
  * keeps its spans to itself: the outer recording sees none of them.
  */
object Timing {

  /** Milliseconds per span name, in first-seen order, and the call's total. */
  final case class Spans(ms: ListMap[String, Long], totalMs: Long)

  private val open = new ThreadLocal[mutable.LinkedHashMap[String, Long]]

  /** Runs `body`; adds its wall time under `name` (same names add up) to the
    * recording open on this thread, if there is one.
    */
  def span[A](name: String)(body: => A): A = Option(open.get).fold(body) { rec =>
    val t0 = System.nanoTime()
    try body finally rec(name) = rec.getOrElse(name, 0L) + (System.nanoTime() - t0)
  }

  /** Runs `body` in a fresh recording; returns its result and its spans. The
    * outer recording is restored afterwards, also when `body` throws.
    */
  def record[A](body: => A): (A, Spans) = {
    val outer = open.get
    val rec = mutable.LinkedHashMap.empty[String, Long]
    open.set(rec)
    val t0 = System.nanoTime()
    try {
      val r = body
      (r, Spans(ListMap.from(rec.view.mapValues(_ / 1000000L)), (System.nanoTime() - t0) / 1000000L))
    } finally open.set(outer)
  }
}
