package repro

class OracleSpec extends SparkSpec {

  private def assertBagsEqual(rows: Seq[(String, String)]): Unit = {
    import spark.implicits._
    val df = rows.toDF("x", "y")
    // Spark hands the rows over in the opposite order to DuckDB's ORDER BY.
    Oracle.assertEquivalent(df.orderBy($"x".desc), "SELECT x, y FROM t ORDER BY x", "t" -> df)
  }

  test("equal bags match whatever order either side returns them in") {
    assertBagsEqual(Seq(("ab", "c"), ("a", "bc")))
  }

  test("rows whose joined values coincide are still told apart") {
    // joined with any one separator these two rows read the same
    assertBagsEqual(Seq(("a\u0001b", "c"), ("a", "b\u0001c")))
  }
}
