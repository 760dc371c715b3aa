#!/usr/bin/env python3
"""Seeded, stdlib-only generator of Spider-layout benchmark inputs.

    python3 evalbench/gen.py --size small|large --seed N --out DIR [--duplicate-head]

Writes, under DIR:

    dev.json, tables.json, database/<db_id>/<db_id>.sqlite   (what nl2sql reads)
    bench/script.json    question -> replies of the simulated model
    bench/expected.json  per-sample expected EA verdict and outcome class

Every database belongs to one retail schema (customer, product, orders,
order_item). A batch is 20 paraphrase pairs: both questions of a pair share
one gold query, as in Spider, and each question gets its own outcome class.
The class mix (MIX below) and the template of each pair (PAIRS) are fixed,
as is the order of the pairs, so every seed costs the same amount of work;
the seed picks the data and the query parameters, and so the question text.

Every candidate query is executed here against the generated database: a
"right" candidate must return the gold result, a "wrong" one must not, an
"error" one must fail in the engine. Parameters that break this are
redrawn, so each expected verdict is known before the program runs.

--size large writes databases whose working set exceeds SQLite's default
2 MB per-connection page cache, with gold queries that scan, join and
aggregate, results of about 10^4 rows, and accidental cross joins that only
a timeout stops. --duplicate-head moves the first question of class
first_try to the head of the batch and puts an exact duplicate after it, so
the batch starts with two identical questions in flight at once.
"""

import argparse
import json
import os
import random
import sqlite3
from collections import Counter

# Outcome classes and their share of a 40-question batch. Stage-error and
# four-call classes (first_try, chatty) make up 24 questions, so the median
# sample lies inside one class rather than on the edge between two.
MIX = {
    "first_try": 18,      # solved by the first SQL
    "round1": 3,          # wrong result, fixed in correction round 1
    "round2": 2,          # fixed in round 2
    "round3": 2,          # fixed in round 3
    "exhausted": 2,       # two wrong candidates alternate until the budget ends
    "engine_error": 2,    # first SQL fails in SQLite, fixed in round 1
    "prose_sql": 2,       # first SQL reply holds no statement, fixed in round 1
    "json_reask": 3,      # one stage needs the format re-ask, then solved
    "stage_error": 2,     # the subproblem stage fails twice
    "chatty": 4,          # fenced, chatty replies, solved first try
}
EXPECTED_EA = {cls: cls not in ("exhausted", "stage_error") for cls in MIX}
WRONGS_USED = {"round1": 1, "round2": 2, "round3": 3, "exhausted": 2}

# (template, class of question a, class of question b). On large databases
# the 14 questions of the four cheapest templates sit below the median, and
# 15 first-try-like questions of avg_segment, customers_year and the
# stage errors of qty_category_city sit around it. avg_segment's first wrong
# candidate is a cross join that times out there, so its two round1
# questions give two timeouts per batch; big_orders returns about 10^4 rows.
PAIRS = (
    ("count_city", "first_try", "chatty"),
    ("count_city", "exhausted", "engine_error"),
    ("revenue_status", "first_try", "round1"),
    ("revenue_status", "round3", "prose_sql"),
    ("top_products", "first_try", "round3"),
    ("categories_having", "first_try", "engine_error"),
    ("categories_having", "first_try", "json_reask"),
    ("avg_segment", "first_try", "round1"),
    ("avg_segment", "round1", "first_try"),
    ("avg_segment", "first_try", "chatty"),
    ("customers_year", "first_try", "round2"),
    ("customers_year", "json_reask", "first_try"),
    ("customers_year", "first_try", "first_try"),
    ("customers_year", "first_try", "prose_sql"),
    ("customers_year", "chatty", "json_reask"),
    ("big_orders", "first_try", "first_try"),
    ("big_orders", "round2", "first_try"),
    ("qty_category_city", "first_try", "exhausted"),
    ("qty_category_city", "first_try", "stage_error"),
    ("qty_category_city", "chatty", "stage_error"),
)
assert Counter(c for _, a, b in PAIRS for c in (a, b)) == Counter(MIX)

SIZES = {
    # db count, customers, products, orders, order items
    "small": (4, 80, 30, 240, 480),
    "large": (3, 15000, 1500, 50000, 50000),
}

CITIES = ("Lyon", "Porto", "Leeds", "Graz", "Turin", "Ghent", "Malmo", "Brno",
          "Cork", "Bergen", "Split", "Bilbao")
SEGMENTS = ("consumer", "corporate", "home office")
CATEGORIES = ("audio", "books", "garden", "kitchen", "office", "sports",
              "toys", "travel")
STATUSES = ("pending", "shipped", "delivered", "returned")
YEARS = tuple(range(2015, 2023))
FIRST = ("Ada", "Bruno", "Chloe", "Dario", "Elena", "Farid", "Greta", "Hugo",
         "Ines", "Jonas", "Kaja", "Luca", "Mira", "Nils", "Olga", "Pavel")
LAST = ("Almeida", "Berg", "Costa", "Dvorak", "Eklund", "Fischer", "Garcia",
        "Horvat", "Ivanova", "Jensen", "Kowal", "Lund", "Moreau", "Novak")
ADJECTIVES = ("compact", "classic", "deluxe", "eco", "mini", "pro", "smart",
              "sturdy")

DDL = """
CREATE TABLE customer (customer_id INTEGER PRIMARY KEY, name TEXT, city TEXT,
    segment TEXT, signup_year INTEGER);
CREATE TABLE product (product_id INTEGER PRIMARY KEY, name TEXT, category TEXT,
    price INTEGER);
CREATE TABLE orders (order_id INTEGER PRIMARY KEY,
    customer_id INTEGER REFERENCES customer(customer_id), order_year INTEGER,
    status TEXT, total INTEGER);
CREATE TABLE order_item (item_id INTEGER PRIMARY KEY,
    order_id INTEGER REFERENCES orders(order_id),
    product_id INTEGER REFERENCES product(product_id), quantity INTEGER);
"""

TABLES = (
    ("customer", (("customer_id", "number"), ("name", "text"), ("city", "text"),
                  ("segment", "text"), ("signup_year", "number"))),
    ("product", (("product_id", "number"), ("name", "text"),
                 ("category", "text"), ("price", "number"))),
    ("orders", (("order_id", "number"), ("customer_id", "number"),
                ("order_year", "number"), ("status", "text"),
                ("total", "number"))),
    ("order_item", (("item_id", "number"), ("order_id", "number"),
                    ("product_id", "number"), ("quantity", "number"))),
)
FOREIGN_KEYS = (
    ("orders", "customer_id", "customer", "customer_id"),
    ("order_item", "order_id", "orders", "order_id"),
    ("order_item", "product_id", "product", "product_id"),
)

NO_SQL = "(no executable SQL)"  # script key: reply after a reply without SQL


def build_database(path, rng, customers, products, orders, items):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    conn = sqlite3.connect(path)
    try:
        conn.executescript(DDL)
        conn.executemany("INSERT INTO customer VALUES (?, ?, ?, ?, ?)", (
            (i, f"{rng.choice(FIRST)} {rng.choice(LAST)} {i}", rng.choice(CITIES),
             rng.choice(SEGMENTS), rng.choice(YEARS))
            for i in range(1, customers + 1)))
        prices = rng.sample(range(500, 500 + 50 * products), products)
        conn.executemany("INSERT INTO product VALUES (?, ?, ?, ?)", (
            (i, f"{rng.choice(ADJECTIVES)} item {i}", rng.choice(CATEGORIES),
             prices[i - 1])
            for i in range(1, products + 1)))
        draw = rng.random
        conn.executemany("INSERT INTO orders VALUES (?, ?, ?, ?, ?)", (
            (i, 1 + int(draw() * customers), YEARS[int(draw() * len(YEARS))],
             STATUSES[int(draw() * len(STATUSES))], 100 + int(draw() * 9901))
            for i in range(1, orders + 1)))
        conn.executemany("INSERT INTO order_item VALUES (?, ?, ?, ?)", (
            (i, 1 + int(draw() * orders), 1 + int(draw() * products),
             1 + int(draw() * 9))
            for i in range(1, items + 1)))
        conn.commit()
    finally:
        conn.close()


def tables_entry(db_id):
    """One Spider tables.json entry for the retail schema."""
    names = [t for t, _ in TABLES]
    columns = [[-1, "*"]]
    types = ["text"]
    index = {}
    for t, (_, cols) in enumerate(TABLES):
        for cname, ctype in cols:
            index[(names[t], cname)] = len(columns)
            columns.append([t, cname])
            types.append(ctype)
    return {
        "db_id": db_id,
        "table_names_original": names,
        "table_names": [n.replace("_", " ") for n in names],
        "column_names_original": columns,
        "column_names": [[t, c.replace("_", " ")] for t, c in columns],
        "column_types": types,
        "primary_keys": [index[(t, cols[0][0])] for t, cols in TABLES],
        "foreign_keys": [[index[(s, sc)], index[(d, dc)]]
                         for s, sc, d, dc in FOREIGN_KEYS],
    }


# --- query templates -------------------------------------------------------
# Each template maps a parameter to two paraphrased questions, a gold query,
# an equivalent "right" candidate, three "wrong" candidates, an "error"
# candidate, and the replies of the earlier stages.

def _link(tables, joins=()):
    return {"tables": tables, "joins": [list(j) for j in joins],
            "notes": "columns the question needs"}


ORDERS_CUSTOMER = ("orders", "customer_id", "customer", "customer_id")


def t_count_city(city):
    where = f"city = '{city}'"
    return {
        "questions": (f"How many customers live in {city}?",
                      f"Count the customers whose city is {city}."),
        "gold": f"SELECT count(*) FROM customer WHERE {where}",
        "right": f"SELECT COUNT(customer_id) FROM customer WHERE {where}",
        "wrongs": (
            (f"SELECT count(*) FROM customer WHERE city = '{city.lower()}'", "VAL-03"),
            (f"SELECT count(*) FROM customer WHERE city <> '{city}'", "FIL-03"),
            (f"SELECT count(DISTINCT segment) FROM customer WHERE {where}", "AGG-03"),
        ),
        "error": (f"SELECT count(*) FROM customers WHERE {where}", "SCH-04"),
        "link": _link({"customer": ["customer_id", "city"]}),
        "sub": {"SELECT": "count(*)", "FROM": "customer", "WHERE": where},
        "plan": ["Read the customer table",
                 f"Keep the customers whose city is {city}",
                 "Count the remaining customers"],
    }


def t_revenue_status(year):
    return {
        "questions": (
            f"What is the total value of orders placed in {year} for each status?",
            f"For orders from {year}, show every status with the sum of order totals."),
        "gold": f"SELECT status, sum(total) FROM orders WHERE order_year = {year} GROUP BY status",
        "right": f"SELECT o.status, SUM(o.total) FROM orders AS o WHERE o.order_year = {year} GROUP BY o.status",
        "wrongs": (
            (f"SELECT status, avg(total) FROM orders WHERE order_year = {year} GROUP BY status", "AGG-03"),
            (f"SELECT status, count(*) FROM orders WHERE order_year = {year} GROUP BY status", "AGG-04"),
            (f"SELECT status, max(total) FROM orders WHERE order_year = {year} GROUP BY status", "AGG-03"),
        ),
        "error": (f"SELECT status, sum(amount) FROM orders WHERE order_year = {year} GROUP BY status", "SCH-01"),
        "link": _link({"orders": ["status", "total", "order_year"]}),
        "sub": {"SELECT": "status, sum(total)", "WHERE": f"order_year = {year}",
                "GROUP BY": "status"},
        "plan": ["Read the orders table",
                 f"Keep the orders placed in {year}",
                 "Group them by status",
                 "Add up the totals of each group"],
    }


def t_customers_year(year):
    join = "FROM customer AS c JOIN orders AS o ON c.customer_id = o.customer_id"
    return {
        "questions": (
            f"Which customers placed an order in {year}? Give their names.",
            f"List the distinct names of customers who ordered in {year}."),
        "gold": f"SELECT DISTINCT c.name {join} WHERE o.order_year = {year}",
        "right": ("SELECT DISTINCT customer.name FROM customer JOIN orders ON "
                  f"customer.customer_id = orders.customer_id WHERE orders.order_year = {year}"),
        "wrongs": (
            (f"SELECT c.name {join} WHERE o.order_year = {year}", "STR-03"),
            (f"SELECT DISTINCT c.name {join} WHERE o.order_year > {year}", "FIL-03"),
            ("SELECT DISTINCT c.name FROM customer AS c JOIN orders AS o ON "
             f"c.customer_id = o.order_id WHERE o.order_year = {year}", "JOIN-04"),
        ),
        "error": (f"SELECT DISTINCT c.name {join} WHERE o.year = {year}", "SCH-01"),
        "link": _link({"customer": ["customer_id", "name"],
                       "orders": ["customer_id", "order_year"]}, [ORDERS_CUSTOMER]),
        "sub": {"SELECT": "DISTINCT customer.name", "JOIN": "orders on customer_id",
                "WHERE": f"order_year = {year}"},
        "plan": ["Join customers to their orders by customer id",
                 f"Keep the orders placed in {year}",
                 "Return each customer name once"],
    }


def t_top_products(n):
    return {
        "questions": (
            f"What are the names and prices of the {n} most expensive products?",
            f"Show the top {n} products by price, with name and price, highest first."),
        "gold": f"SELECT name, price FROM product ORDER BY price DESC LIMIT {n}",
        "right": f"SELECT p.name, p.price FROM product AS p ORDER BY p.price DESC LIMIT {n}",
        "wrongs": (
            (f"SELECT name, price FROM product ORDER BY price ASC LIMIT {n}", "STR-01"),
            (f"SELECT name, price FROM product ORDER BY price DESC LIMIT {n + 10}", "STR-02"),
            (f"SELECT name, price FROM product ORDER BY name DESC LIMIT {n}", "STR-01"),
        ),
        "error": (f"SELECT name, price FROM products ORDER BY price DESC LIMIT {n}", "SCH-04"),
        "link": _link({"product": ["name", "price"]}),
        "sub": {"SELECT": "name, price", "ORDER BY": "price DESC", "LIMIT": str(n)},
        "plan": ["Read the product table",
                 "Sort the products from the highest price down",
                 f"Keep the first {n} products and report name and price"],
        "ordered": True,
    }


def t_categories_having(n):
    return {
        "questions": (f"Which product categories contain more than {n} products?",
                      f"List the categories that have over {n} products."),
        "gold": f"SELECT category FROM product GROUP BY category HAVING count(*) > {n}",
        "right": f"SELECT p.category FROM product AS p GROUP BY p.category HAVING COUNT(*) > {n}",
        "wrongs": (
            (f"SELECT category FROM product GROUP BY category HAVING count(*) >= {n}", "FIL-03"),
            (f"SELECT category FROM product GROUP BY category HAVING count(*) < {n}", "FIL-03"),
            ("SELECT DISTINCT category FROM product", "AGG-02"),
        ),
        "error": (f"SELECT category FROM product WHERE count(*) > {n} GROUP BY category", "AGG-02"),
        "link": _link({"product": ["product_id", "category"]}),
        "sub": {"SELECT": "category", "GROUP BY": "category",
                "HAVING": f"count(*) > {n}"},
        "plan": ["Group the products by category",
                 "Count the products in each category",
                 f"Keep the categories whose count exceeds {n}"],
    }


def t_qty_category_city(city):
    body = ("FROM order_item AS i JOIN product AS p ON i.product_id = p.product_id "
            "JOIN orders AS o ON i.order_id = o.order_id "
            "JOIN customer AS c ON o.customer_id = c.customer_id")
    where = f"WHERE c.city = '{city}' GROUP BY p.category"
    return {
        "questions": (
            f"How many units of each product category were ordered by customers from {city}?",
            f"For customers in {city}, what is the total quantity ordered per product category?"),
        "gold": f"SELECT p.category, sum(i.quantity) {body} {where}",
        "right": f"SELECT p.category, SUM(i.quantity) {body} {where}",
        "wrongs": (
            (f"SELECT p.category, count(*) {body} {where}", "AGG-04"),
            (f"SELECT p.category, sum(i.quantity) {body} GROUP BY p.category", "FIL-04"),
            (f"SELECT p.category, max(i.quantity) {body} {where}", "AGG-03"),
        ),
        "error": (f"SELECT p.category, sum(i.qty) {body} {where}", "SCH-01"),
        "link": _link({"order_item": ["order_id", "product_id", "quantity"],
                       "product": ["product_id", "category"],
                       "orders": ["order_id", "customer_id"],
                       "customer": ["customer_id", "city"]},
                      [("order_item", "product_id", "product", "product_id"),
                       ("order_item", "order_id", "orders", "order_id"),
                       ORDERS_CUSTOMER]),
        "sub": {"SELECT": "category, sum(quantity)",
                "JOIN": "order_item, product, orders, customer",
                "WHERE": f"customer.city = '{city}'", "GROUP BY": "category"},
        "plan": ["Connect order items to products, orders and customers",
                 f"Keep the items whose customer lives in {city}",
                 "Group the items by product category",
                 "Add up the quantities of each group"],
    }


def t_avg_segment(segment):
    join = "FROM orders AS o JOIN customer AS c ON o.customer_id = c.customer_id"
    where = f"WHERE c.segment = '{segment}'"
    return {
        "questions": (
            f"What is the average order total for customers in the {segment} segment?",
            f"Give the mean total of orders placed by {segment} customers."),
        "gold": f"SELECT avg(o.total) {join} {where}",
        "right": f"SELECT AVG(o.total) {join} {where}",
        "wrongs": (
            # missing join condition: a cross join, stopped by the timeout
            # on large databases
            (f"SELECT avg(o.total) FROM orders AS o, customer AS c {where}", "JOIN-04"),
            (f"SELECT max(o.total) {join} {where}", "AGG-03"),
            (f"SELECT avg(o.total) {join} WHERE c.segment <> '{segment}'", "FIL-03"),
        ),
        "error": (f"SELECT avg(o.total) {join} WHERE c.segmnt = '{segment}'", "SCH-01"),
        "link": _link({"orders": ["customer_id", "total"],
                       "customer": ["customer_id", "segment"]}, [ORDERS_CUSTOMER]),
        "sub": {"SELECT": "avg(orders.total)", "JOIN": "customer on customer_id",
                "WHERE": f"segment = '{segment}'"},
        "plan": ["Join orders to their customers",
                 f"Keep the orders of customers in the {segment} segment",
                 "Average the order totals"],
        "cross_join_wrong": 0,
    }


def t_big_orders(threshold):
    return {
        "questions": (
            f"List the id and total of every order with a total above {threshold}.",
            f"Which orders have a total greater than {threshold}? Show order id and total."),
        "gold": f"SELECT order_id, total FROM orders WHERE total > {threshold}",
        "right": f"SELECT o.order_id, o.total FROM orders AS o WHERE o.total > {threshold}",
        "wrongs": (
            (f"SELECT order_id, customer_id FROM orders WHERE total > {threshold}", "SCH-04"),
            (f"SELECT order_id, total FROM orders WHERE total >= {threshold - 100}", "FIL-03"),
            (f"SELECT order_id, total FROM orders WHERE total > {threshold} "
             "AND status <> 'returned'", "FIL-04"),
        ),
        "error": (f"SELECT order_id, total FROM order WHERE total > {threshold}", "SYN-02"),
        "link": _link({"orders": ["order_id", "total"]}),
        "sub": {"SELECT": "order_id, total", "WHERE": f"total > {threshold}"},
        "plan": ["Read the orders table",
                 f"Keep the orders whose total exceeds {threshold}",
                 "Report each order id with its total"],
    }


def params_for(template, rng, conn, size):
    """Candidate parameters for a template on one database, in seeded order."""
    if template in ("count_city", "qty_category_city"):
        values = list(CITIES)
    elif template in ("revenue_status", "customers_year"):
        values = list(YEARS)
    elif template == "top_products":
        values = list(range(3, 10))
    elif template == "categories_having":
        values = sorted({n for (n,) in conn.execute(
            "SELECT count(*) FROM product GROUP BY category")})
    elif template == "avg_segment":
        values = list(SEGMENTS)
    elif template == "big_orders":
        # about 10^4 result rows on large databases, a few dozen on small ones
        keep = 10000 if size == "large" else 30
        totals = [t for (t,) in conn.execute("SELECT total FROM orders ORDER BY total DESC")]
        values = [totals[keep + k * 7] for k in range(12)]
    else:
        raise ValueError(template)
    rng.shuffle(values)
    return values


TEMPLATES = {
    "count_city": t_count_city,
    "revenue_status": t_revenue_status,
    "customers_year": t_customers_year,
    "top_products": t_top_products,
    "categories_having": t_categories_having,
    "qty_category_city": t_qty_category_city,
    "avg_segment": t_avg_segment,
    "big_orders": t_big_orders,
}


# --- verification of candidate verdicts --------------------------------------

def _canon(value):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _result(conn, sql):
    cursor = conn.execute(sql)
    rows = [tuple(_canon(v) for v in row) for row in cursor.fetchall()]
    return len(cursor.description), rows


def _same(gold, other, ordered):
    if gold[0] != other[0]:
        return False
    return gold[1] == other[1] if ordered else Counter(gold[1]) == Counter(other[1])


def verify(conn, spec, size):
    """True when the gold result is non-empty, the right candidate matches it,
    every wrong candidate differs and the error candidate fails."""
    ordered = spec.get("ordered", False)
    gold = _result(conn, spec["gold"])
    if not gold[1] or gold[1] == [(0,)] or gold[1] == [(None,)]:
        return False
    if not _same(gold, _result(conn, spec["right"]), ordered):
        return False
    for k, (sql, _) in enumerate(spec["wrongs"]):
        if size == "large" and spec.get("cross_join_wrong") == k:
            continue  # never finishes: the run stops it with a timeout
        if _same(gold, _result(conn, sql), ordered):
            return False
    try:
        conn.execute(spec["error"][0]).fetchall()
    except sqlite3.Error:
        pass
    else:
        return False
    cores = [sql for sql, _ in spec["wrongs"]] + [spec["error"][0]]
    return not any(a != b and a in b for a in cores for b in cores)


# --- simulated-model replies --------------------------------------------------

def _fenced(lang, text):
    return f"Sure, here it is:\n```{lang}\n{text}\n```\nLet me know if anything is unclear."


def _fix_plan(code):
    return json.dumps({
        "codes": [code],
        "steps": [f"Apply the repair for {code} to the failed query",
                  "Keep every other part of the query unchanged"],
        "rationale": f"the result does not answer the question ({code})",
    })


def script_for(spec, cls, reask_variant):
    """Replies of the simulated model for one question, by stage role.

    Up-front roles map to [first reply, reply after the format re-ask];
    "fixes" maps a failed SQL text to the correction plan and the next SQL.
    """
    link = json.dumps(spec["link"])
    sub = json.dumps(spec["sub"])
    plan = json.dumps({"steps": spec["plan"], "rationale": "follow the question"})
    script = {"schema_linking": [link], "subproblem": [sub], "query_plan": [plan],
              "sql": [spec["right"]], "fixes": []}
    wrongs = [sql for sql, _ in spec["wrongs"]]
    codes = [code for _, code in spec["wrongs"]]
    if cls == "chatty":
        script["schema_linking"] = [_fenced("json", link)]
        script["sql"] = [_fenced("sql", spec["right"])
                         + " The query answers the question directly."]
    elif cls in WRONGS_USED:
        used = WRONGS_USED[cls]
        script["sql"] = [wrongs[0] + ";\nThis query should answer the question."]
        if cls == "exhausted":
            chain = [(wrongs[0], codes[0], wrongs[1]), (wrongs[1], codes[1], wrongs[0])]
        else:
            chain = [(wrongs[k], codes[k], wrongs[k + 1] if k + 1 < used else spec["right"])
                     for k in range(used)]
        script["fixes"] = [[failed, _fix_plan(code), nxt]
                           for failed, code, nxt in chain]
    elif cls == "engine_error":
        error_sql, code = spec["error"]
        script["sql"] = [error_sql]
        script["fixes"] = [[error_sql, _fix_plan(code), spec["right"]]]
    elif cls == "prose_sql":
        script["sql"] = ["I would look up the matching rows and report the answer."]
        script["fixes"] = [[NO_SQL, _fix_plan("SYN-02"), spec["right"]]]
    elif cls == "json_reask":
        prose = "The question concerns the tables named in the schema."
        if reask_variant == 0:
            script["schema_linking"] = [prose, link]
        elif reask_variant == 1:
            script["subproblem"] = [prose, sub]
        else:
            script["query_plan"] = [json.dumps({"steps": [spec["right"]]}), plan]
    elif cls == "stage_error":
        script["subproblem"] = ["I cannot split this question into parts."] * 2
    return script


def generate(size, seed, out, duplicate_head=False):
    rng = random.Random(f"{size}:{seed}")
    n_dbs, customers, products, orders, items = SIZES[size]
    prefix = "retail" if size == "small" else "warehouse"
    db_ids = [f"{prefix}_{k + 1}" for k in range(n_dbs)]
    conns = {}
    try:
        for db_id in db_ids:
            path = os.path.join(out, "database", db_id, db_id + ".sqlite")
            build_database(path, rng, customers, products, orders, items)
            conns[db_id] = sqlite3.connect(path)

        # one fixed order for every seed, so the same questions run side by
        # side in the pool whatever the seed
        pairs = list(PAIRS)
        random.Random("pair order").shuffle(pairs)
        used = set()
        entries, expected, scripts = [], [], {}
        reask_count = 0
        for p, (template, cls_a, cls_b) in enumerate(pairs):
            db_id = db_ids[p % n_dbs]
            conn = conns[db_id]
            for param in params_for(template, rng, conn, size):
                if (template, param) in used:
                    continue
                spec = TEMPLATES[template](param)
                if verify(conn, spec, size):
                    used.add((template, param))
                    break
            else:
                raise RuntimeError(f"no valid parameter for {template} on {db_id}")
            for question, cls in zip(spec["questions"], (cls_a, cls_b)):
                variant = reask_count % 3 if cls == "json_reask" else 0
                reask_count += cls == "json_reask"
                scripts[question] = script_for(spec, cls, variant)
                entries.append({"db_id": db_id, "question": question,
                                "query": spec["gold"]})
                expected.append({"ea": EXPECTED_EA[cls], "class": cls,
                                 "template": template})
    finally:
        for conn in conns.values():
            conn.close()

    if duplicate_head:
        first = next(i for i, row in enumerate(expected) if row["class"] == "first_try")
        entry, outcome = entries.pop(first), expected.pop(first)
        entries[:0] = [entry, dict(entry)]
        expected[:0] = [outcome, dict(outcome)]
    for i, row in enumerate(expected):
        row["index"] = i

    os.makedirs(os.path.join(out, "bench"), exist_ok=True)
    _dump(os.path.join(out, "dev.json"), entries)
    _dump(os.path.join(out, "tables.json"), [tables_entry(d) for d in db_ids])
    _dump(os.path.join(out, "bench", "script.json"), scripts)
    _dump(os.path.join(out, "bench", "expected.json"), expected)


def _dump(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--duplicate-head", action="store_true")
    args = parser.parse_args(argv)
    generate(args.size, args.seed, args.out, args.duplicate_head)


if __name__ == "__main__":
    main()
