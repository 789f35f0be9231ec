"""LDBC Social Network Benchmark — schema and synthetic generator.

The schema follows the LDBC-SNB interactive property graph (paper §5.1.1,
Erling et al. 2015) with the Organisation and Place supertypes split into
their concrete subtypes (Company/University and City/Country/Continent).
The split is what the optimisation feeds on: the place hierarchy
``City → Country → Continent`` is acyclic at the label level, so
``isPartOf+`` and ``isLocatedIn+`` closures are eliminable, while ``knows``,
``replyOf`` and ``isSubclassOf`` carry label-level self-loops and stay
recursive — exactly the split the paper reports (§5.4). Alias views
``Organisation`` and ``Place`` reconstruct the supertypes for the
Fig. 15-17 artefacts.

The generator is deterministic per (scale factor, seed) and mimics the
LDBC shape: a power-law ``knows`` graph, deep comment reply trees, and
skewed tag popularity.
"""

from __future__ import annotations

import random

from repro.graph.model import PropertyGraph
from repro.schema.builder import SchemaBuilder
from repro.schema.model import GraphSchema
from repro.storage.relational import RelationalStore

#: The six scale factors used throughout the paper's evaluation (Table 3).
LDBC_SCALE_FACTORS = (0.1, 0.3, 1, 3, 10, 30)

#: Alias views reconstructing the LDBC supertypes (see module docstring).
ORGANISATION_LABELS = ("Company", "University")
PLACE_LABELS = ("City", "Country", "Continent")


def ldbc_schema() -> GraphSchema:
    """The LDBC-SNB property graph schema."""
    return (
        SchemaBuilder("ldbc-snb")
        .node("Person", firstName="String", lastName="String", birthday="Date")
        .node("Forum", title="String")
        .node("Post", content="String", length="Int")
        .node("Comment", content="String", length="Int")
        .node("Tag", name="String")
        .node("TagClass", name="String")
        .node("Company", name="String")
        .node("University", name="String")
        .node("City", name="String")
        .node("Country", name="String")
        .node("Continent", name="String")
        # person relationships
        .edge("Person", "knows", "Person")
        .edge("Person", "hasInterest", "Tag")
        .edge("Person", "likes", "Post")
        .edge("Person", "likes", "Comment")
        .edge("Person", "studyAt", "University")
        .edge("Person", "workAt", "Company")
        .edge("Person", "isLocatedIn", "City")
        # content
        .edge("Post", "hasCreator", "Person")
        .edge("Comment", "hasCreator", "Person")
        .edge("Comment", "replyOf", "Post")
        .edge("Comment", "replyOf", "Comment")
        .edge("Post", "hasTag", "Tag")
        .edge("Comment", "hasTag", "Tag")
        .edge("Post", "isLocatedIn", "Country")
        .edge("Comment", "isLocatedIn", "Country")
        # forums
        .edge("Forum", "hasModerator", "Person")
        .edge("Forum", "hasMember", "Person")
        .edge("Forum", "containerOf", "Post")
        .edge("Forum", "hasTag", "Tag")
        # tags
        .edge("Tag", "hasType", "TagClass")
        .edge("TagClass", "isSubclassOf", "TagClass")
        # organisations and places
        .edge("Company", "isLocatedIn", "Country")
        .edge("University", "isLocatedIn", "City")
        .edge("City", "isPartOf", "Country")
        .edge("Country", "isPartOf", "Continent")
        .build()
    )


def _sizes(scale_factor: float) -> dict[str, int]:
    """Node counts per label for a scale factor.

    The absolute sizes map the paper's SF axis onto pure-Python-feasible
    graphs; growth is sub-linear in SF (like LDBC's person counts) and the
    *ratios* between entity types follow LDBC's.
    """
    persons = max(20, int(round(95 * scale_factor**0.62)))
    return {
        "persons": persons,
        "forums": max(6, persons // 3),
        "posts": persons * 3,
        "comments": persons * 5,
        "tags": 40 + persons // 5,
        "tagclasses": 15,
        "companies": 25,
        "universities": 18,
        "cities": 36,
        "countries": 12,
        "continents": 5,
    }


def generate_ldbc(scale_factor: float = 1.0, seed: int = 42) -> PropertyGraph:
    """Generate an LDBC-SNB-shaped property graph."""
    rng = random.Random((seed, scale_factor).__hash__())
    sizes = _sizes(scale_factor)
    graph = PropertyGraph(f"ldbc-sf{scale_factor}")
    next_id = [0]

    def make_nodes(count: int, label: str, props) -> list[int]:
        ids = []
        for index in range(count):
            node_id = next_id[0]
            next_id[0] += 1
            graph.add_node(node_id, label, props(index))
            ids.append(node_id)
        return ids

    continents = make_nodes(
        sizes["continents"], "Continent", lambda i: {"name": f"Continent{i}"}
    )
    countries = make_nodes(
        sizes["countries"], "Country", lambda i: {"name": f"Country{i}"}
    )
    cities = make_nodes(sizes["cities"], "City", lambda i: {"name": f"City{i}"})
    companies = make_nodes(
        sizes["companies"], "Company", lambda i: {"name": f"Company{i}"}
    )
    universities = make_nodes(
        sizes["universities"], "University", lambda i: {"name": f"University{i}"}
    )
    tagclasses = make_nodes(
        sizes["tagclasses"], "TagClass", lambda i: {"name": f"TagClass{i}"}
    )
    tags = make_nodes(sizes["tags"], "Tag", lambda i: {"name": f"Tag{i}"})
    persons = make_nodes(
        sizes["persons"],
        "Person",
        lambda i: {"firstName": f"First{i}", "lastName": f"Last{i}"},
    )
    forums = make_nodes(
        sizes["forums"], "Forum", lambda i: {"title": f"Forum{i}"}
    )
    posts = make_nodes(
        sizes["posts"], "Post", lambda i: {"length": 20 + (i % 180)}
    )
    comments = make_nodes(
        sizes["comments"], "Comment", lambda i: {"length": 5 + (i % 120)}
    )

    # -- places: City -> Country -> Continent (acyclic hierarchy) ----------
    for city in cities:
        graph.add_edge(city, "isPartOf", rng.choice(countries))
    for country in countries:
        graph.add_edge(country, "isPartOf", rng.choice(continents))

    # -- organisations ------------------------------------------------------
    for company in companies:
        graph.add_edge(company, "isLocatedIn", rng.choice(countries))
    for university in universities:
        graph.add_edge(university, "isLocatedIn", rng.choice(cities))

    # -- tag hierarchy: shallow forest over tag classes ---------------------
    for index, tagclass in enumerate(tagclasses):
        if index > 0:
            parent = tagclasses[rng.randrange(0, index)]
            graph.add_edge(tagclass, "isSubclassOf", parent)
    for tag in tags:
        graph.add_edge(tag, "hasType", rng.choice(tagclasses))

    # -- persons -------------------------------------------------------------
    # Power-law-ish `knows`: preferential attachment over arrival order.
    for index, person in enumerate(persons):
        graph.add_edge(person, "isLocatedIn", rng.choice(cities))
        if rng.random() < 0.6:
            graph.add_edge(person, "workAt", rng.choice(companies))
        if rng.random() < 0.45:
            graph.add_edge(person, "studyAt", rng.choice(universities))
        interests = rng.sample(tags, k=min(len(tags), rng.randint(1, 4)))
        for tag in interests:
            graph.add_edge(person, "hasInterest", tag)
        degree = min(index, max(1, int(rng.paretovariate(1.6))))
        for _ in range(degree):
            # Preferential attachment: earlier persons are more popular.
            friend = persons[int(index * rng.random() ** 2)]
            if friend != person:
                graph.add_edge(person, "knows", friend)
                graph.add_edge(friend, "knows", person)

    # -- forums ---------------------------------------------------------------
    for forum in forums:
        graph.add_edge(forum, "hasModerator", rng.choice(persons))
        members = rng.sample(
            persons, k=min(len(persons), rng.randint(3, max(4, len(persons) // 4)))
        )
        for member in members:
            graph.add_edge(forum, "hasMember", member)
        for tag in rng.sample(tags, k=rng.randint(1, 3)):
            graph.add_edge(forum, "hasTag", tag)

    # -- posts -----------------------------------------------------------------
    for post in posts:
        graph.add_edge(post, "hasCreator", rng.choice(persons))
        graph.add_edge(post, "isLocatedIn", rng.choice(countries))
        graph.add_edge(rng.choice(forums), "containerOf", post)
        for tag in rng.sample(tags, k=rng.randint(1, 3)):
            graph.add_edge(post, "hasTag", tag)
        for _ in range(rng.randint(0, 4)):
            graph.add_edge(rng.choice(persons), "likes", post)

    # -- comments: deep reply trees ----------------------------------------------
    for index, comment in enumerate(comments):
        graph.add_edge(comment, "hasCreator", rng.choice(persons))
        graph.add_edge(comment, "isLocatedIn", rng.choice(countries))
        # 30% reply to a post, 70% to an earlier comment -> long chains.
        if index == 0 or rng.random() < 0.3:
            graph.add_edge(comment, "replyOf", rng.choice(posts))
        else:
            graph.add_edge(comment, "replyOf", comments[rng.randrange(0, index)])
        if rng.random() < 0.5:
            graph.add_edge(comment, "hasTag", rng.choice(tags))
        if rng.random() < 0.4:
            graph.add_edge(rng.choice(persons), "likes", comment)

    return graph


def ldbc_store(
    graph: PropertyGraph, schema: GraphSchema | None = None
) -> RelationalStore:
    """Relational store for an LDBC graph, with the supertype alias views."""
    store = RelationalStore.from_graph(graph, schema or ldbc_schema())
    store.add_alias("Organisation", ORGANISATION_LABELS)
    store.add_alias("Place", PLACE_LABELS)
    return store


def ldbc_session(
    scale_factor: float = 1.0,
    seed: int = 42,
    graph: PropertyGraph | None = None,
    **session_kwargs,
):
    """A :class:`~repro.engine.session.GraphSession` over an LDBC graph,
    with the Organisation/Place alias views declared. Extra keyword
    arguments (e.g. ``result_cache_size``) reach the session."""
    from repro.engine.session import GraphSession

    schema = ldbc_schema()
    if graph is None:
        graph = generate_ldbc(scale_factor, seed=seed)
    return GraphSession(
        graph,
        schema,
        aliases={
            "Organisation": ORGANISATION_LABELS,
            "Place": PLACE_LABELS,
        },
        **session_kwargs,
    )
