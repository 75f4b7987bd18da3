package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.Timing.{record, span}

class TimingSpec extends AnyFunSuite {

  test("a span outside any recording runs its body and records nothing") {
    var runs = 0
    assert(span("alone") { runs += 1; 7 } == 7)
    assert(runs == 1)
    // A recording belongs to its thread: another thread's span is outside it.
    val (_, s) = record {
      val t = new Thread(() => span("other thread") { runs += 1 })
      t.start(); t.join()
    }
    assert(runs == 2)
    assert(s.ms.isEmpty)
  }

  test("two spans with the same name add up") {
    val (_, s) = record {
      span("a")(Thread.sleep(20)); span("b")(()); span("a")(Thread.sleep(20))
    }
    assert(s.ms.keys.toSeq == Seq("a", "b"))
    assert(s.ms("a") >= 40, s"two 20 ms spans gave ${s.ms("a")} ms")
    assert(s.ms.values.sum <= s.totalMs)
  }

  test("a record whose body throws restores the outer recording, and the exception propagates") {
    val boom = new IllegalStateException("boom")
    val (_, outer) = record {
      span("before")(())
      val e = intercept[IllegalStateException](record { span("inner")(()); throw boom })
      assert(e eq boom)
      span("after")(())
    }
    assert(outer.ms.keys.toSeq == Seq("before", "after"))
  }

  test("a nested record keeps its spans out of the outer one") {
    val ((_, inner), outer) = record {
      span("outer")(Thread.sleep(5))
      val nested = record(span("inner")(Thread.sleep(5)))
      span("outer")(())
      nested
    }
    assert(inner.ms.keys.toSeq == Seq("inner"))
    assert(outer.ms.keys.toSeq == Seq("outer"))
    assert(outer.ms("outer") >= 5 && inner.ms("inner") >= 5)
  }
}
